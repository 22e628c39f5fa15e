package sim

import (
	"runtime"
	"sync/atomic"
	"time"
)

// lingerWindow is how long a worker that finished a job polls for the next
// one before it exits. It covers the gap between two back-to-back Run(1)
// calls of a testbench (a peek, a poke) without holding a CPU once the
// testbench has stopped: an idle engine owns no goroutine. It is a
// constant because the cost it trades against, starting a goroutine and
// waking it on another P, is a property of the Go runtime (tens of µs),
// not of the design being simulated.
const lingerWindow = 100 * time.Microsecond

// busyThreads counts, across every gang in the process, the threads of the
// runs in progress plus the workers lingering after one. A worker lingers
// only if the count, once its own run has ended, stays within GOMAXPROCS:
// with several engines running at once, a lingering worker would spin on
// a P that a thread of another engine needs.
var busyThreads atomic.Int32

// Worker states of a lingering gang. A slot moves absent → claimed when a
// run hands it a job (starting a goroutine if none is there), claimed →
// idle when the job is done, and idle → claimed (next job) or idle →
// absent (window over, goroutine exits). A worker that may not linger goes
// claimed → absent directly.
const (
	workerAbsent uint32 = iota
	workerClaimed
	workerIdle
)

// gangWorker is the state word of one worker, alone on its cache line so
// that polling workers do not share a line with each other.
type gangWorker struct {
	state atomic.Uint32
	_     [60]byte
}

// gang runs one job on n threads: thread 0 on the caller's goroutine and
// threads 1..n-1 on workers that outlive a single run. Every thread's job
// must end with a wait on a barrier shared by all n threads; that last
// wait is what orders all of their writes before run returns. A gang is
// not safe for concurrent runs; each engine owns one.
type gang struct {
	n, procs int32 // threads; GOMAXPROCS when the gang was created
	// linger is false when n exceeds procs: an idle worker would then
	// hold a P that a thread of the same run needs, so every run starts
	// fresh goroutines that exit when done.
	linger  bool
	job     func(t int)
	workers []gangWorker
}

func newGang(n int) *gang {
	procs := runtime.GOMAXPROCS(0)
	return &gang{
		n:       int32(n),
		procs:   int32(procs),
		linger:  n <= procs,
		workers: make([]gangWorker, n-1),
	}
}

// run calls job(t) once for every thread t.
func (g *gang) run(job func(t int)) {
	busyThreads.Add(g.n)
	if !g.linger {
		for t := 1; t < int(g.n); t++ {
			go job(t)
		}
		job(0)
		busyThreads.Add(-g.n)
		return
	}
	g.job = job
	for i := range g.workers {
		w := &g.workers[i]
		if !w.state.CompareAndSwap(workerIdle, workerClaimed) {
			// The slot is absent: its last worker exited or never started.
			w.state.Store(workerClaimed)
			go g.work(i)
		}
	}
	job(0)
	// The workers passed the job's last barrier with the caller; wait the
	// few instructions until each is idle or gone.
	for i := range g.workers {
		w := &g.workers[i]
		for spins := 1; w.state.Load() == workerClaimed; spins++ {
			if spins%64 == 0 {
				runtime.Gosched()
			}
		}
	}
	g.job = nil
	busyThreads.Add(-g.n)
}

// work is the body of lingering worker i (thread i+1).
func (g *gang) work(i int) {
	w := &g.workers[i]
	for {
		g.job(i + 1)
		// The count still holds this run's n threads; after the run it
		// will hold this worker instead.
		if busyThreads.Load()-g.n+1 > g.procs {
			w.state.Store(workerAbsent)
			return
		}
		busyThreads.Add(1)
		w.state.Store(workerIdle)
		next := w.await()
		busyThreads.Add(-1)
		if !next {
			return
		}
	}
}

// await polls for the next job for lingerWindow. It reports false when the
// window ran out and the slot went back to absent, so the worker must exit.
func (w *gangWorker) await() bool {
	deadline := time.Now().Add(lingerWindow)
	for spins := 1; ; spins++ {
		if w.state.Load() == workerClaimed {
			return true
		}
		if spins%64 == 0 {
			if time.Now().After(deadline) {
				if w.state.CompareAndSwap(workerIdle, workerAbsent) {
					return false
				}
				// A run claimed the slot as the window closed; the next
				// poll sees it.
				continue
			}
			runtime.Gosched()
		}
	}
}
