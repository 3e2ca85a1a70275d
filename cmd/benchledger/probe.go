package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// The host this benchmark was sized on shares its cores and memory with
// other tenants. Pure ALU loops run at a steady speed there, but code that
// works caches and memory — map lookups, allocation, the platform itself —
// runs up to 1.9× slower while contention comes and goes for seconds at a
// time, so raw timings of one build differ by 10–40% between runs. The
// benchmark therefore measures the host alongside the workload: a fixed
// reference kernel (none of the repository's code) runs between short slices
// of the workload, and every operation of a slice, like the slice's wall
// time, is converted to quiet-host time with the kernel's times around that
// slice. Contention that slows kernel and workload alike cancels out.
//
// What the workload does to itself must stay in, so the kernel runs with the
// process's own goroutines held off: on one P, so that no background
// goroutine, timer or GC worker of the workload runs beside it and slows it.
// Dropping to one P first waits for a GC cycle in progress to end, and that
// wait is counted in the slice before it.

const (
	// probeEvery is the length of one workload slice between probes.
	probeEvery = 20 * time.Millisecond
	// The kernel hashes probeRounds times into a small table that stays in
	// the core's caches and makes probeFar random writes to a buffer of
	// probeBuf bytes that does not, so it feels contention for the core and
	// for the memory system alike. It takes about probeQuiet on a quiet
	// reference host (Intel Xeon, 2 vCPUs, go1.24).
	probeRounds = 20000
	probeFar    = 12000
	probeBuf    = 16 << 20
	probeQuiet  = 300 * time.Microsecond
)

// hostProbe is the reference kernel. Its table is allocated once and its
// buffer lives outside the Go heap, so a probe neither allocates nor changes
// the workload's live heap.
type hostProbe struct {
	table map[uint32]uint32
	buf   []byte
	sum   uint32
}

func newHostProbe() (*hostProbe, error) {
	buf, err := syscall.Mmap(-1, 0, probeBuf, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("probe buffer: %w", err)
	}
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	p := &hostProbe{table: make(map[uint32]uint32, 1024), buf: buf}
	p.measure() // fill the table so later probes never grow it
	return p, nil
}

func (p *hostProbe) close() { _ = syscall.Munmap(p.buf) }

// measure runs the kernel once on one P and returns when the process had
// settled (no GC cycle in progress, nothing else of it running) and how long
// the kernel took.
func (p *hostProbe) measure() (settled time.Time, took time.Duration) {
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	t0 := now()
	x := uint32(2463534242)
	for i := 0; i < probeRounds; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		p.table[x&1023] += x
	}
	for i := 0; i < probeFar; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		p.buf[x&(probeBuf-1)] += byte(x)
	}
	p.sum += p.table[x&1023]
	return t0, since(t0)
}

// factor converts times measured between two probes that took before and
// after to quiet-host times.
func factor(before, after time.Duration) float64 {
	return float64(2*probeQuiet) / float64(before+after)
}
