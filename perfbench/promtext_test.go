package main

import "testing"

// exposition is a GET /metrics excerpt in the shape the server writes.
const exposition = `# HELP artisan_http_request_duration_seconds HTTP request latency in seconds, by route pattern.
# TYPE artisan_http_request_duration_seconds histogram
artisan_http_request_duration_seconds_bucket{route="POST /design",le="0.005"} 7990
artisan_http_request_duration_seconds_bucket{route="POST /design",le="+Inf"} 8046
artisan_http_request_duration_seconds_sum{route="POST /design"} 9.52763
artisan_http_request_duration_seconds_count{route="POST /design"} 8046
artisan_http_request_duration_seconds_sum{route="GET /metrics"} 0.002
artisan_jobs_cache_hits_total 2034

artisan_odd{a="x,y}",b="say \"hi\"\\"} 1e-3
`

func TestParsePromReadsTheServerMetrics(t *testing.T) {
	samples, err := parseProm(exposition)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 7 {
		t.Fatalf("%d samples, want 7", len(samples))
	}
	route := map[string]string{"route": "POST /design"}
	if v, ok := promValue(samples, "artisan_http_request_duration_seconds_sum", route); !ok || v != 9.52763 {
		t.Errorf("sum = %v %v", v, ok)
	}
	if v, ok := promValue(samples, "artisan_http_request_duration_seconds_count", route); !ok || v != 8046 {
		t.Errorf("count = %v %v", v, ok)
	}
	if v, ok := promValue(samples, "artisan_http_request_duration_seconds_bucket",
		map[string]string{"route": "POST /design", "le": "+Inf"}); !ok || v != 8046 {
		t.Errorf("+Inf bucket = %v %v", v, ok)
	}
	if v, ok := promValue(samples, "artisan_jobs_cache_hits_total", nil); !ok || v != 2034 {
		t.Errorf("cache hits = %v %v", v, ok)
	}
	if v, ok := promValue(samples, "artisan_odd", map[string]string{"a": "x,y}", "b": `say "hi"\`}); !ok || v != 1e-3 {
		t.Errorf("escaped labels = %v %v", v, ok)
	}
	if _, ok := promValue(samples, "artisan_http_request_duration_seconds_sum",
		map[string]string{"route": "POST /jobs"}); ok {
		t.Error("matched a route that is not there")
	}
}

func TestParsePromRejectsMalformedLines(t *testing.T) {
	for _, bad := range []string{
		`m{route="x"`,
		`m{route=x} 1`,
		`m 1.2.3`,
		`{route="x"} 1`,
		`m{a="b"}`,
	} {
		if _, err := parseProm(bad + "\n"); err == nil {
			t.Errorf("parseProm(%q) accepted", bad)
		}
	}
}
