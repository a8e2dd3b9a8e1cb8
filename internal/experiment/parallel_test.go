package experiment

import (
	"strings"
	"testing"
)

// The parallel harness must be a pure throughput change: same seeds,
// same cells, byte-identical rendered table.
func TestParallelMatchesSerial(t *testing.T) {
	base := DefaultConfig(7)
	base.Trials = 2
	base.Budget = 60
	base.Groups = []string{"G-1", "G-5"}
	base.Methods = []Method{MethodBOBO, MethodGPT4, MethodArtisan}

	serialCfg := base
	serialCfg.Workers = 0
	serial, err := Run(serialCfg)
	if err != nil {
		t.Fatal(err)
	}

	parallelCfg := base
	parallelCfg.Workers = 4
	parallel, err := Run(parallelCfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(serial.Cells) != len(parallel.Cells) {
		t.Fatalf("cells: serial %d, parallel %d", len(serial.Cells), len(parallel.Cells))
	}
	for i := range serial.Cells {
		if serial.Cells[i] != parallel.Cells[i] {
			t.Errorf("cell %d differs:\nserial   %+v\nparallel %+v",
				i, serial.Cells[i], parallel.Cells[i])
		}
	}
	// Workers is part of Cfg, so compare the rendered tables (which only
	// print trials/budget) byte for byte.
	if s, p := serial.String(), parallel.String(); s != p {
		t.Errorf("rendered tables differ:\n--- serial ---\n%s--- parallel ---\n%s", s, p)
	}
}

// A failing trial aborts the sweep with an error naming its cell, for
// every worker count: 0 and 1 run trials in order, 4 runs them at once.
func TestParallelPropagatesErrors(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		cfg := DefaultConfig(1)
		cfg.Trials = 2
		cfg.Workers = workers
		cfg.Budget = 5 // below BOBO's minimum → deterministic error
		cfg.Groups = []string{"G-1"}
		cfg.Methods = []Method{MethodBOBO}
		_, err := Run(cfg)
		if err == nil {
			t.Fatalf("workers=%d: want budget error from harness", workers)
		}
		if !strings.Contains(err.Error(), "BOBO on G-1") {
			t.Errorf("workers=%d: error %q does not name the cell", workers, err)
		}
	}
}
