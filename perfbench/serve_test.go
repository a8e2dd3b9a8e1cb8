package main

import (
	"bytes"
	"testing"
)

func TestRequestStreamIsAPureFunctionOfSeedAndIndex(t *testing.T) {
	const n = 400
	a, b := newRequestStream(7), newRequestStream(7)
	// b is read back to front: drawing on demand must not depend on the
	// order in which the callers ask.
	for i := n - 1; i >= 0; i-- {
		if _, err := b.get(i); err != nil {
			t.Fatal(err)
		}
	}
	repeats := 0
	for i := 0; i < n; i++ {
		ra, err := a.get(i)
		if err != nil {
			t.Fatal(err)
		}
		rb, _ := b.get(i)
		if !bytes.Equal(ra.body, rb.body) || ra.key != rb.key {
			t.Fatalf("request %d differs between two streams of one seed", i)
		}
		if ra.key < i-repeats {
			repeats++
		}
	}
	if share := float64(repeats) / n; share < 0.15 || share > 0.35 {
		t.Fatalf("repeat share %.2f, want about %.2f", share, serveRepeatShare)
	}
	c, _ := newRequestStream(8).get(0)
	first, _ := a.get(0)
	if bytes.Equal(c.body, first.body) {
		t.Fatal("two seeds drew the same first request")
	}
}
