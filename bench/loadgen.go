package main

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	grouting "repro"
)

type opKind uint8

const (
	opRead opKind = iota
	opWrite
)

// sample is one completed operation; times are nanoseconds since the
// phase started. In the closed loop due equals sent.
type sample struct {
	due, sent, done int64
	kind            opKind
	ok              bool
}

// driver issues the workload's operations through one Client and checks
// every reply against the oracle.
type driver struct {
	in  *inputs
	cl  grouting.Client
	mir *mirror // non-nil on the mutating mix
}

// do performs operation i and reports whether its reply was correct. On
// the mutating mix a read's reference answer moves with the concurrent
// writes, so reads there are checked for failure only; the mirror graph
// verifies them exactly once the run has quiesced.
func (d *driver) do(ctx context.Context, i int64) (opKind, bool) {
	if every := int64(d.in.w.mutateEvery); d.mir != nil && i%every == every-1 {
		mut, slot := d.mir.next(d.in.hot)
		n, err := d.cl.Mutate(ctx, []grouting.Mutation{mut})
		ok := err == nil && n == 1
		d.mir.ack(mut, slot, ok)
		return opWrite, ok
	}
	qi := int(i % int64(len(d.in.queries)))
	res, err := d.cl.Execute(ctx, d.in.queries[qi])
	if err != nil {
		return opRead, false
	}
	return opRead, d.mir != nil || res == d.in.want[qi]
}

// phase is the outcome of one timed phase.
type phase struct {
	samples  []sample
	elapsedS float64
	// backlog is how many due operations had not completed when the
	// schedule ended (open loop only).
	backlog int
	// lastLagUS is the lateness of the final send (open loop only).
	lastLagUS float64
}

func (p *phase) counts() (attempted, failed int64) {
	for _, s := range p.samples {
		attempted++
		if !s.ok {
			failed++
		}
	}
	return
}

// runClosed is the closed loop: each of clients callers sends its next
// operation only after the previous reply, for dur. While they run, probe
// (when not nil) is called every probeEvery from the caller's goroutine.
func runClosed(ctx context.Context, d *driver, clients int, dur, probeEvery time.Duration, probe func()) *phase {
	var next atomic.Int64
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				t0 := time.Since(start)
				if t0 >= dur {
					return
				}
				kind, ok := d.do(ctx, next.Add(1)-1)
				per[k] = append(per[k], sample{
					due: int64(t0), sent: int64(t0), done: int64(time.Since(start)),
					kind: kind, ok: ok,
				})
			}
		}(k)
	}
	if probe != nil {
		for due := probeEvery; due < dur; due += probeEvery {
			time.Sleep(time.Until(start.Add(due)))
			probe()
		}
	}
	wg.Wait()
	p := &phase{elapsedS: time.Since(start).Seconds()}
	for _, s := range per {
		p.samples = append(p.samples, s...)
	}
	return p
}

// usageMark is one reading of the daemons' accounting, at nanoseconds
// since its phase started.
type usageMark struct {
	at int64
	u  procUsage
}

// windowCosts returns, for every two consecutive marks with a correct
// answer between them, the daemons' I/O system calls and bytes per
// correct answer completed in that window.
func windowCosts(marks []usageMark, samples []sample) (syscalls, bytes []float64) {
	var done []int64
	for _, s := range samples {
		if s.ok {
			done = append(done, s.done)
		}
	}
	sort.Slice(done, func(a, b int) bool { return done[a] < done[b] })
	until := func(t int64) int { return sort.Search(len(done), func(i int) bool { return done[i] > t }) }
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		ops := float64(until(b.at) - until(a.at))
		if ops == 0 {
			continue
		}
		syscalls = append(syscalls, (b.u.syscalls-a.u.syscalls)/ops)
		bytes = append(bytes, (b.u.ioBytes-a.u.ioBytes)/ops)
	}
	return syscalls, bytes
}

// spinWindow is the tail of every wait that is spun through instead of
// slept. A kernel sleep wakes within the thread's timer slack (50 us by
// default) plus a reschedule, so the sleep aims this far short of the due
// time and a yield loop covers the rest.
const spinWindow = 200 * time.Microsecond

// waitUntil returns at (never before) t. It sleeps the coarse part of the
// wait in the kernel — nanosleep, because a runtime timer on an idle
// process is served by epoll_wait, whose timeout counts in milliseconds —
// and covers the last spinWindow with a yield loop.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > spinWindow {
			ts := syscall.NsecToTimespec(int64(d - spinWindow))
			syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early return only means another lap
		} else {
			runtime.Gosched()
		}
	}
}

// runOpen is the open loop: operation i is due at start + i/rate whatever
// earlier operations are doing. At most inflight operations run at once;
// when all are busy the schedule blocks and the wait is charged to the
// delayed operation, because every latency is taken from its due time.
func runOpen(ctx context.Context, d *driver, rate float64, dur time.Duration, inflight int) *phase {
	type job struct {
		i   int64
		due time.Duration
	}
	jobs := make(chan job)
	per := make([][]sample, inflight)
	var completed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < inflight; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for j := range jobs {
				sent := time.Since(start)
				kind, ok := d.do(ctx, j.i)
				per[k] = append(per[k], sample{
					due: int64(j.due), sent: int64(sent), done: int64(time.Since(start)),
					kind: kind, ok: ok,
				})
				completed.Add(1)
			}
		}(k)
	}
	p := &phase{}
	interval := float64(time.Second) / rate
	var i int64
	for ; ; i++ {
		due := time.Duration(float64(i) * interval)
		if due >= dur {
			break
		}
		waitUntil(start.Add(due))
		jobs <- job{i, due}
		runtime.Gosched() // let the worker that took the job send before this goroutine sleeps again
		p.lastLagUS = float64(time.Since(start)-due) / float64(time.Microsecond)
	}
	p.backlog = int(i - completed.Load())
	close(jobs)
	wg.Wait()
	p.elapsedS = time.Since(start).Seconds()
	for _, s := range per {
		p.samples = append(p.samples, s...)
	}
	sort.Slice(p.samples, func(a, b int) bool { return p.samples[a].due < p.samples[b].due })
	return p
}

// openStats are the figures taken from an open-loop phase.
type openStats struct {
	p50MS, p99MS, p999MS, maxMS float64
	p99AllMS                    float64 // plain p99 over every sample
	p99Blocks                   int     // full blocks of p99Block samples behind p99MS
	lagP50US, lagP99US          float64
	n                           int
}

// p99Block is how many consecutive operations one p99 is taken over: ten
// samples lie beyond it. The reported p99 is the median of the blocks'
// p99s, so one stall moves it no further than one block, while a stall
// the program causes periodically (a WAL compaction, a GC cycle) lands in
// most blocks and shows.
const p99Block = 1000

// summarizeOpen turns samples (in due order) into latency and lateness
// figures. Latency runs from the due time; a failed operation counts as
// slower than any limit, so it is booked at the phase's maximum.
func summarizeOpen(samples []sample, keep func(sample) bool) openStats {
	var lat, lag []float64
	var worst float64
	for _, s := range samples {
		if l := float64(s.done-s.due) / 1e6; l > worst {
			worst = l
		}
	}
	for _, s := range samples {
		if keep != nil && !keep(s) {
			continue
		}
		l := float64(s.done-s.due) / 1e6
		if !s.ok {
			l = worst
		}
		lat = append(lat, l)
		lag = append(lag, float64(s.sent-s.due)/1e3)
	}
	var st openStats
	st.n = len(lat)
	if st.n == 0 {
		return st
	}
	sl := sortedCopy(lat)
	st.p50MS = quantile(sl, 0.50)
	st.p99AllMS = quantile(sl, 0.99)
	st.p99MS = st.p99AllMS // a phase shorter than one block
	if blocks := blockQuantiles(lat, p99Block, 0.99); len(blocks) > 0 {
		st.p99MS, st.p99Blocks = median(blocks), len(blocks)
	}
	st.p999MS = quantile(sl, 0.999)
	st.maxMS = sl[len(sl)-1]
	sg := sortedCopy(lag)
	st.lagP50US = quantile(sg, 0.50)
	st.lagP99US = quantile(sg, 0.99)
	return st
}

// generatorVerdict names what, if anything, disqualifies an open-loop
// phase: a generator that ran late by more than a tenth of the median
// latency, or a backlog still growing when the schedule ended.
func generatorVerdict(st openStats, p *phase, inflight int) string {
	switch {
	case st.lagP99US > 0.10*st.p50MS*1000:
		return "generator late: client.gen_lag_p99_us exceeds 10% of client.lat_p50_ms"
	case p.backlog >= inflight || p.lastLagUS > 10*st.p50MS*1000:
		return "backlog still growing at the end of the open-loop phase"
	}
	return ""
}

func nproc() int { return runtime.NumCPU() }
