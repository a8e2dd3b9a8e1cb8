package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// promSample is one parsed line of the Prometheus text format.
type promSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// parseProm parses the sample lines of a Prometheus text exposition.
// Comment and blank lines are skipped; a malformed sample line is an
// error, so a format change on GET /metrics fails the run loudly.
func parseProm(text string) ([]promSample, error) {
	var out []promSample
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d %q: %w", n, line, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parsePromLine(line string) (promSample, error) {
	s := promSample{Labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return s, fmt.Errorf("no metric name")
	}
	s.Name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		end, err := parseLabels(rest, s.Labels)
		if err != nil {
			return s, err
		}
		rest = rest[end:]
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("no value")
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value: %w", err)
	}
	s.Value = v
	return s, nil
}

// parseLabels reads a {k="v",...} block at the start of s into dst and
// returns the index just past the closing brace. Values may hold spaces,
// commas, braces and the escapes \\, \" and \n.
func parseLabels(s string, dst map[string]string) (int, error) {
	i := 1
	for {
		for i < len(s) && (s[i] == ',' || s[i] == ' ') {
			i++
		}
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label set")
		}
		if s[i] == '}' {
			return i + 1, nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 || i+eq+1 >= len(s) || s[i+eq+1] != '"' {
			return 0, fmt.Errorf("bad label at %d", i)
		}
		key := s[i : i+eq]
		i += eq + 2
		var b strings.Builder
		for {
			if i >= len(s) {
				return 0, fmt.Errorf("unterminated label value")
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(s[i])
				}
				i++
				continue
			}
			b.WriteByte(c)
			i++
		}
		dst[key] = b.String()
	}
}

// promValue returns the value of the sample named name whose labels
// include every pair of want, and whether one was found.
func promValue(samples []promSample, name string, want map[string]string) (float64, bool) {
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		ok := true
		for k, v := range want {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			return s.Value, true
		}
	}
	return 0, false
}
