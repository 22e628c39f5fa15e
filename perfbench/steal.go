package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The benchmark runs on virtual machines whose hypervisor steals CPU time
// from them in bursts. A stolen slice stretches every sample that spans it
// (on 2 vCPUs, by far more than the stolen share, because the parallel
// phases wait for the stolen vCPU), and it swamps the run-to-run spread of
// every timing. Each timed sample therefore records the steal ticks that
// fell inside it, and the reported figures use the calm samples only: see
// Calm. Records keep the unfiltered figures too.

// cpuTicks reads the machine's cumulative steal and total CPU ticks from
// the first line of /proc/stat (zeros where it is unavailable).
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[min(1, len(fields)):] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			steal = v
		}
	}
	return steal, total
}

func stealTicks() uint64 {
	s, _ := cpuTicks()
	return s
}

// Sample is one timed value and the steal ticks that fell inside it.
type Sample struct {
	V     float64
	Steal uint64
}

// Values returns the samples' values.
func Values(ss []Sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.V
	}
	return out
}

// Calm returns the values of the samples during which the hypervisor stole
// no CPU time. When fewer than a quarter of the samples (rounded up) are
// calm, it returns the least-stolen quarter instead, so a run that was
// stolen from throughout still reports its best-placed samples.
func Calm(ss []Sample) []float64 {
	keep := (len(ss) + 3) / 4
	var calm []float64
	for _, s := range ss {
		if s.Steal == 0 {
			calm = append(calm, s.V)
		}
	}
	if len(calm) >= keep {
		return calm
	}
	bySteal := append([]Sample(nil), ss...)
	sort.SliceStable(bySteal, func(i, j int) bool { return bySteal[i].Steal < bySteal[j].Steal })
	return Values(bySteal[:keep])
}

// StealWindows samples the steal counter every period in the background,
// for work that runs on several goroutines at once (service-mix), where a
// per-call read would cost more than the calls being timed.
type StealWindows struct {
	period time.Duration
	stop   chan struct{}
	done   chan struct{}

	mu    sync.Mutex
	at    []time.Time
	ticks []uint64
}

// WatchSteal starts sampling now; Stop ends it.
func WatchSteal(period time.Duration) *StealWindows {
	w := &StealWindows{period: period, stop: make(chan struct{}), done: make(chan struct{})}
	w.record()
	go func() {
		defer close(w.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				w.record()
				return
			case <-t.C:
				w.record()
			}
		}
	}()
	return w
}

func (w *StealWindows) record() {
	s := stealTicks()
	w.mu.Lock()
	w.at = append(w.at, time.Now())
	w.ticks = append(w.ticks, s)
	w.mu.Unlock()
}

// Stop ends sampling and waits for the sampler to exit.
func (w *StealWindows) Stop() {
	close(w.stop)
	<-w.done
}

// Windows returns how many windows were recorded.
func (w *StealWindows) Windows() int { return max(len(w.at)-1, 0) }

// Window returns the index of the window holding t, or -1. Call after Stop.
func (w *StealWindows) Window(t time.Time) int {
	i := sort.Search(len(w.at), func(i int) bool { return w.at[i].After(t) })
	if i == 0 || i == len(w.at) {
		return -1
	}
	return i - 1
}

// Steal returns the steal ticks and the length of window i.
func (w *StealWindows) Steal(i int) (uint64, time.Duration) {
	return w.ticks[i+1] - w.ticks[i], w.at[i+1].Sub(w.at[i])
}

// SummarizeCalm records the summary of the calm samples under name and of
// all samples under name+".raw", and returns the calm one.
func (r *Run) SummarizeCalm(name string, ss []Sample) Summary {
	r.Summarize(name+".raw", Values(ss))
	return r.Summarize(name, Calm(ss))
}
