package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// deriveSeed maps (seed, i) to a positive simulation seed with a
// SplitMix64 finaliser, so a workload seed expands into a sequence of
// unrelated per-operation seeds.
func deriveSeed(seed int64, i int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z>>33) + 1
}

// heapSampler records the high-water of the live heap (the bytes the
// last GC cycle marked reachable) while a workload runs, polling
// runtime/metrics, which does not stop the world. The live heap moves
// far less with the collector's timing than heap in use does.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64 // high-water since the last Take
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			h.read()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) read() {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	h.mu.Lock()
	h.peak = max(h.peak, sample[0].Value.Uint64())
	h.mu.Unlock()
}

// Take returns the high-water in MiB since the previous Take (or the
// start) and opens a new window, so a workload can report the peak of
// a typical op rather than the largest of however many ops a run fits.
func (h *heapSampler) Take() float64 {
	h.read()
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peak
	h.peak = 0
	return float64(p) / (1 << 20)
}

// Stop ends sampling and waits for the sampler goroutine.
func (h *heapSampler) Stop() {
	close(h.stop)
	<-h.done
}

// runtimeCounters is a snapshot of the Go runtime's cumulative
// allocation and GC counters.
type runtimeCounters struct {
	mallocs, bytes, pauseNs uint64
	gcs                     uint32
}

func readRuntime() runtimeCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeCounters{mallocs: m.Mallocs, bytes: m.TotalAlloc, pauseNs: m.PauseTotalNs, gcs: m.NumGC}
}

// runtimeUse is the runtime's work between two snapshots, per op.
type runtimeUse struct {
	allocsPerOp, bytesPerOp, gcPauseS, gcCycles float64
}

func runtimeSince(before runtimeCounters, ops int) runtimeUse {
	after := readRuntime()
	n := float64(max(ops, 1))
	return runtimeUse{
		allocsPerOp: float64(after.mallocs-before.mallocs) / n,
		bytesPerOp:  float64(after.bytes-before.bytes) / n,
		gcPauseS:    float64(after.pauseNs-before.pauseNs) / 1e9,
		gcCycles:    float64(after.gcs - before.gcs),
	}
}
