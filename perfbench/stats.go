package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"
)

// Summary describes one sample set: its size, median and quartiles (the
// exclusive method of Python's statistics.quantiles, so the figures match
// what a reader recomputes from the raw values), and the highest percentile
// that still has at least tailBeyond samples above it, capped at p99.
type Summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Mean   float64 `json:"mean"`
	// TailPct is 0 when there are too few samples for any tail.
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

// tailBeyond is how many samples must lie beyond a reported percentile.
const tailBeyond = 10

// Summarize sorts a copy of xs and describes it. An empty set gives N = 0.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, med, q3 := Quartiles(s)
	sum := Summary{N: len(s), Median: med, Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1]}
	for _, x := range s {
		sum.Mean += x / float64(len(s))
	}
	sum.TailPct, sum.Tail, _ = Tail(s)
	return sum
}

// Quartiles of sorted values by the exclusive method (Python's
// statistics.quantiles(n=4) default). One value gives itself three times.
func Quartiles(sorted []float64) (q1, q2, q3 float64) {
	ld := len(sorted)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return sorted[0], sorted[0], sorted[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		out[i-1] = (sorted[j-1]*float64(n-delta) + sorted[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// Tail returns the highest percentile of sorted values that has at least
// tailBeyond samples above it, capped at 99, and the value at that
// percentile (nearest rank). ok is false with too few samples for any
// percentile at or above the median.
func Tail(sorted []float64) (pct, v float64, ok bool) {
	n := len(sorted)
	if n < 2*tailBeyond+1 {
		return 0, 0, false
	}
	// 1-based nearest ranks, in integers so no rounding moves a sample.
	rank, pct := n-tailBeyond, 100*float64(n-tailBeyond)/float64(n)
	if p99 := (99*n + 99) / 100; p99 <= rank {
		rank, pct = p99, 99
	}
	return pct, sorted[rank-1], true
}

// Rate is count per second over d; 0 for an empty interval.
func Rate(count float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return count / d.Seconds()
}

// Ratio is num/den, 0 when den is 0 (a layer the workload never called).
func Ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms and us convert durations for reporting.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// Value is one reported metric value, the form the result line carries.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ResultLine is the last line a run prints: the machine-readable verdict.
type ResultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// ParseResultLine decodes a result line and checks it is well formed:
// exactly the four keys, whole counts, at least one attempt, a unit and a
// finite value for every metric, and correct agreeing with failed.
func ParseResultLine(line []byte) (*ResultLine, error) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(line, &raw); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := raw[k]; !ok {
			return nil, fmt.Errorf("result line: missing key %q", k)
		}
	}
	if len(raw) != 4 {
		return nil, fmt.Errorf("result line: %d keys, want exactly 4", len(raw))
	}
	var r ResultLine
	if err := json.Unmarshal(line, &r); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if r.Attempted < 1 || r.Failed < 0 || r.Failed > r.Attempted {
		return nil, fmt.Errorf("result line: attempted %d, failed %d", r.Attempted, r.Failed)
	}
	if r.Correct != (r.Failed == 0) {
		return nil, fmt.Errorf("result line: correct=%v with %d failed", r.Correct, r.Failed)
	}
	for name, v := range r.Metrics {
		if v.Unit == "" || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("result line: metric %q malformed", name)
		}
	}
	return &r, nil
}
