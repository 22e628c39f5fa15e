package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"repro"
	"repro/internal/designs"
)

// Expected values are Python's statistics.quantiles(data, n=4), which the
// benchmark's acceptance procedure uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 7}, [3]float64{4.5, 6, 7.5}},
		{[]float64{2.5, 0.5, 9, 4, 4, 1}, [3]float64{0.875, 3.25, 5.25}},
	} {
		s := append([]float64(nil), c.data...)
		sort.Float64s(s)
		q1, q2, q3 := Quartiles(s)
		if got := [3]float64{q1, q2, q3}; !close3(got, c.want) {
			t.Errorf("Quartiles(%v) = %v, want %v", c.data, got, c.want)
		}
	}
	if q1, q2, q3 := Quartiles([]float64{4}); q1 != 4 || q2 != 4 || q3 != 4 {
		t.Errorf("one value: %v %v %v", q1, q2, q3)
	}
}

func close3(a, b [3]float64) bool {
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			return false
		}
	}
	return true
}

func TestMedian(t *testing.T) {
	if got := Summarize([]float64{10, 1, 2}).Median; got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := Summarize([]float64{4, 1, 10, 2}).Median; got != 3 {
		t.Errorf("even median = %v", got)
	}
	if got := Summarize(nil); got.N != 0 {
		t.Errorf("empty summary = %+v", got)
	}
	s := Summarize([]float64{9, 1, 5})
	if s.N != 3 || s.Median != 5 || s.Min != 1 || s.Max != 9 {
		t.Errorf("Summarize = %+v", s)
	}
}

// The tail is the highest percentile with at least tailBeyond samples
// above it, capped at p99.
func TestTail(t *testing.T) {
	for _, n := range []int{20, 21, 100, 500, 999, 1000, 1001, 5000} {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		pct, v, ok := Tail(s)
		if n < 2*tailBeyond+1 {
			if ok {
				t.Errorf("n=%d: tail reported from too few samples", n)
			}
			continue
		}
		beyond := n - int(v) // values are 1..n
		if !ok || beyond < tailBeyond || pct > 99 {
			t.Errorf("n=%d: pct %v value %v: %d samples beyond", n, pct, v, beyond)
		}
		if n*(100-99) < 100*tailBeyond && beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond, want exactly %d below the p99 cap", n, beyond, tailBeyond)
		}
		if n*(100-99) >= 100*tailBeyond && pct != 99 {
			t.Errorf("n=%d: pct %v, want the p99 cap", n, pct)
		}
	}
}

func TestRateAndRatio(t *testing.T) {
	if got := Rate(500, 2*time.Second); got != 250 {
		t.Errorf("Rate = %v", got)
	}
	if got := Rate(5, 0); got != 0 {
		t.Errorf("Rate over empty interval = %v", got)
	}
	if got := Ratio(3, 4); got != 0.75 {
		t.Errorf("Ratio = %v", got)
	}
	if got := Ratio(3, 0); got != 0 {
		t.Errorf("Ratio by zero = %v", got)
	}
}

func TestParseResultLine(t *testing.T) {
	good := `{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}}}`
	r, err := ParseResultLine([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if r.Attempted != 10 || r.Metrics["setup_s"].Value != 0.8127 || r.Metrics["setup_s"].Unit != "s" {
		t.Errorf("parsed %+v", r)
	}
	for name, bad := range map[string]string{
		"missing key":    `{"correct": true, "attempted": 1, "metrics": {}}`,
		"extra key":      `{"correct": true, "attempted": 1, "failed": 0, "metrics": {}, "x": 1}`,
		"no attempts":    `{"correct": true, "attempted": 0, "failed": 0, "metrics": {}}`,
		"fractional":     `{"correct": true, "attempted": 1.5, "failed": 0, "metrics": {}}`,
		"correct lies":   `{"correct": true, "attempted": 3, "failed": 1, "metrics": {}}`,
		"more failures":  `{"correct": false, "attempted": 1, "failed": 2, "metrics": {}}`,
		"no unit":        `{"correct": true, "attempted": 1, "failed": 0, "metrics": {"a": {"value": 1}}}`,
		"not an object":  `[1, 2]`,
		"truncated line": `{"correct": true, "attempted": 1,`,
	} {
		if _, err := ParseResultLine([]byte(bad)); err == nil {
			t.Errorf("%s: accepted %s", name, bad)
		}
	}
}

// The metric catalog the program reports must be exactly the one
// BENCHMARK.json declares, with the same units, and the workloads must
// match.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []MetricDef `json:"end_to_end"`
		PerLayer  []MetricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []MetricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program reports %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %v, program %v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, e2eMetrics)
	same("per_layer", b.PerLayer, layerMetrics)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q not implemented", w.Name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "bench.job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "firrtl.parse", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "core.partition", Start: 30, End: 90},
		{ID: 4, Parent: 3, Name: "sim.compile", Start: 40, End: 50},
	}
	got := SelfTimes(spans)
	want := map[string]time.Duration{"bench": 20, "firrtl": 20, "core": 50, "sim": 10}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("self time of %s = %v, want %v", l, got[l], d)
		}
	}
	if n := len(Durations(spans, "firrtl.parse", nil)); n != 1 {
		t.Errorf("Durations found %d spans", n)
	}
}

// A nil tracer and its spans are no-ops, so untraced paths share code.
func TestNilTracer(t *testing.T) {
	var tr *Tracer
	root := tr.Begin("g", "bench.job")
	v, err := Around(root, "firrtl.parse", func() (int, error) { return 7, nil })
	root.End()
	if v != 7 || err != nil || tr.Spans() != nil {
		t.Errorf("nil tracer: %v %v %v", v, err, tr.Spans())
	}
}

// designText must produce IR that parses; it carries the workaround for
// the printed-name defect.
func TestDesignTextParses(t *testing.T) {
	for _, name := range sweepDesigns {
		cfg, err := designs.ParseName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := repcut.ParseCircuit(designText(cfg)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	cfg, _ := designs.ParseName(sweepDesigns[0])
	if printedNameParses(cfg) {
		t.Log("firrtl.Print output of built-in names now parses: the rename in designText can go")
	}
}

func TestCalm(t *testing.T) {
	all := []Sample{{1, 0}, {2, 0}, {3, 0}, {4, 5}}
	if got := Calm(all); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("calm samples = %v, want the three unstolen ones", got)
	}
	// One calm sample of eight is below a quarter: keep the two least stolen.
	few := []Sample{{10, 3}, {11, 0}, {12, 9}, {13, 1}, {14, 4}, {15, 2}, {16, 7}, {17, 8}}
	if got := Calm(few); len(got) != 2 || got[0] != 11 || got[1] != 13 {
		t.Errorf("least-stolen quarter = %v, want [11 13]", got)
	}
	if got := Calm(nil); len(got) != 0 {
		t.Errorf("Calm(nil) = %v", got)
	}
}
