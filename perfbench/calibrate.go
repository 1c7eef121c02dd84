package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"unsafe"
)

// The shared host this benchmark runs on drifts in speed, at times by
// half, over seconds to minutes (other tenants on the same cores and
// caches). The drift slows every scenario of a run alike, so no
// statistic over one run's scenarios removes it, and it is larger than
// any bound a regression gate could use. So a scenario's Run times are
// divided by how much slower than nominal a fixed reference kernel,
// which shares no code with the simulator, ran just before and just
// after Run: they read as they would on a host where one kernel pass
// takes refNominalNs.

// refNominalNs is one kernel pass's typical time on the 2-vCPU
// "Intel(R) Xeon(R) Processor" host the benchmark was defined on, so
// that there a scaled time reads about as measured.
const refNominalNs = 6.0e6

// refPasses is how many passes each kernel copy makes per reading; a
// scenario's slowdown is the median of the readings before and after Run.
const refPasses = 5

// Kernel sizes: a sort of refKeys ints (branchy compares in L2), and an
// event loop of refEvents events over a refQueue-deep binary heap, each
// reading a random cell of a refNodes² float32 gain matrix (memory
// latency beyond L2) and doing dB math — the kinds of work the simulator
// spends its time on.
const (
	refKeys   = 1 << 15
	refQueue  = 1 << 11
	refEvents = 8000
	refNodes  = 1 << 10
)

type refEvent struct {
	t    float64
	node int32
}

// refKernel holds the kernel's buffers. They live in an anonymous
// mapping outside the Go heap, so they add nothing to live_heap_mb, and a
// pass allocates nothing, so the kernel neither triggers nor waits on
// the collector.
type refKernel struct {
	keys, work []int
	queue      []refEvent
	gain       []float32
	rng        *rand.Rand
	sink       float64
}

func newRefKernel() (*refKernel, error) {
	const (
		keysB  = refKeys * int(unsafe.Sizeof(int(0)))
		queueB = refQueue * int(unsafe.Sizeof(refEvent{}))
		gainB  = refNodes * refNodes * int(unsafe.Sizeof(float32(0)))
	)
	b, err := syscall.Mmap(-1, 0, 2*keysB+queueB+gainB,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the reference kernel's buffers: %w", err)
	}
	k := &refKernel{
		keys:  carve[int](b[:keysB]),
		work:  carve[int](b[keysB : 2*keysB]),
		queue: carve[refEvent](b[2*keysB : 2*keysB+queueB]),
		gain:  carve[float32](b[2*keysB+queueB:]),
		rng:   rand.New(rand.NewSource(1)),
	}
	for i := range k.keys {
		k.keys[i] = k.rng.Int()
	}
	for i := range k.gain {
		k.gain[i] = float32(k.rng.Float64())
	}
	return k, nil
}

// carve views b, which must be aligned for T, as a slice of T.
func carve[T any](b []byte) []T {
	var zero T
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/int(unsafe.Sizeof(zero)))
}

// threadCPUNs is the calling OS thread's CPU time in ns. It leaves out
// the time the thread waits for a core, on this host or under it, so it
// tracks how fast code runs while it runs.
func threadCPUNs() float64 {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID,
		uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", e))
	}
	return float64(ts.Nano())
}

const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID

// pass runs the kernel once and returns the CPU time it took in ns. The
// caller must be locked to its OS thread.
func (k *refKernel) pass() float64 {
	t := threadCPUNs()
	copy(k.work, k.keys)
	sort.Ints(k.work)

	q := k.queue
	for i := range q {
		q[i] = refEvent{t: k.rng.Float64(), node: int32(k.rng.Intn(refNodes))}
	}
	for i := len(q)/2 - 1; i >= 0; i-- {
		siftDown(q, i)
	}
	s := 0.0
	for n := 0; n < refEvents; n++ {
		// Fire the earliest event and reschedule it at a random node.
		e := &q[0]
		to := int32(k.rng.Intn(refNodes))
		g := float64(k.gain[int(e.node)*refNodes+int(to)])
		s += 10 * math.Log10(g+1e-3)
		e.t += k.rng.ExpFloat64()
		e.node = to
		siftDown(q, 0)
	}
	k.sink += s
	return threadCPUNs() - t
}

// siftDown restores the min-heap order on q below slot i.
func siftDown(q []refEvent, i int) {
	for {
		c := 2*i + 1
		if c >= len(q) {
			return
		}
		if c+1 < len(q) && q[c+1].t < q[c].t {
			c++
		}
		if q[i].t <= q[c].t {
			return
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
}

// read appends refPasses kernel pass times from every kernel in ks to xs.
// The kernels run at once, one goroutine each, so a reading covers every
// core a scenario may run on. Nil ks append nothing.
func read(ks []*refKernel, xs []float64) []float64 {
	times := make([][refPasses]float64, len(ks))
	var wg sync.WaitGroup
	for i, k := range ks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for j := range times[i] {
				times[i][j] = k.pass()
			}
		}()
	}
	wg.Wait()
	for _, t := range times {
		xs = append(xs, t[:]...)
	}
	return xs
}

// slowdown is the median of the pass times in xs over refNominalNs, or 1
// when there are none.
func slowdown(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	return median(xs) / refNominalNs
}
