package main

import (
	"fmt"
	"os"
	"os/exec"
	"sync"
	"time"
)

// Reference kernels: fixed amounts of work whose wall time measures how
// fast this host is running *right now*. On a small shared sandbox the
// same instruction stream swings tens of percent from second to second
// (a busy sibling hardware thread, steal, a neighbour's I/O); running a
// kernel immediately before and after a timed operation and dividing by
// the result removes the part of that swing both share. A kernel only
// helps if the host slows it the way it slows the operation, so there
// are two: register arithmetic for the in-process simulator workloads,
// and process spawns plus fsyncs for the serving workload, whose cost
// is what it asks of the operating system.

// hostKernel is one reference kernel and its frozen nominal time.
type hostKernel struct {
	// nominalMs is the kernel's quiet-host wall time on the machine the
	// first baseline was taken on (README.md). It only fixes the scale
	// of normalised metrics — every normalised value is raw × nominal /
	// measured kernel time — so it is frozen: editing it rescales every
	// baseline ever recorded.
	nominalMs float64
	slice     func() time.Duration
}

// factor converts the two slices bracketing an operation into the
// factor by which the host ran slower (>1) or faster (<1) than nominal
// while the operation executed.
func (k hostKernel) factor(before, after time.Duration) float64 {
	mean := (before.Seconds() + after.Seconds()) / 2
	return mean * 1000 / k.nominalMs
}

// bracketed times fn between two slices and returns the raw wall time
// and the host factor that applied to it.
func (k hostKernel) bracketed(fn func()) (raw time.Duration, factor float64) {
	before := k.slice()
	start := time.Now()
	fn()
	raw = time.Since(start)
	return raw, k.factor(before, k.slice())
}

// refIters is the CPU kernel's fixed work: 2^24 xorshift64 steps,
// registers only, no allocation.
const refIters = 1 << 24

// RefNominalMs is the CPU kernel's nominal time: the floor it returns
// to whenever the core's other hardware thread is idle (≈32 ms, factor
// ≈1.3, when it is not).
const RefNominalMs = 25.0

// refSink keeps the kernel's result observable so the compiler cannot
// drop the loop.
var refSink uint64

// refSlice runs the CPU kernel once and returns its wall time.
func refSlice() time.Duration {
	start := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink += x
	return time.Since(start)
}

var cpuKernel = hostKernel{nominalMs: RefNominalMs, slice: refSlice}

// The service kernel is what a served job asks of the operating system,
// in frozen miniature: per lane, svcRounds times, exec this binary with
// refSpawnArg (it exits at once), append a block to a scratch file and
// fsync it. The lanes run in parallel, one per client, because the
// serving workload keeps every core busy and a single-threaded kernel
// cannot see contention on the core it is not on.
const (
	svcRounds   = 4
	refSpawnArg = "-refspawn"
)

// SvcNominalMs is the service kernel's nominal time with two lanes.
const SvcNominalMs = 20.0

// svcKernel owns the scratch files the service kernel appends to.
type svcKernel struct {
	self  string
	files []*os.File
	block []byte
	err   error // first failure; checked when the kernel is closed
}

func newSvcKernel(dir string, lanes int) (*svcKernel, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	k := &svcKernel{self: self, block: make([]byte, 4096)}
	for i := 0; i < lanes; i++ {
		f, err := os.CreateTemp(dir, "svc-kernel-")
		if err != nil {
			k.close()
			return nil, err
		}
		k.files = append(k.files, f)
	}
	return k, nil
}

func (k *svcKernel) slice() time.Duration {
	start := time.Now()
	errs := make([]error, len(k.files))
	var wg sync.WaitGroup
	for i, f := range k.files {
		wg.Add(1)
		go func(i int, f *os.File) {
			defer wg.Done()
			for r := 0; r < svcRounds; r++ {
				if err := exec.Command(k.self, refSpawnArg).Run(); err != nil {
					errs[i] = err
				}
				if _, err := f.Write(k.block); err != nil {
					errs[i] = err
				}
				if err := f.Sync(); err != nil {
					errs[i] = err
				}
			}
		}(i, f)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && k.err == nil {
			k.err = err
		}
	}
	return time.Since(start)
}

func (k *svcKernel) kernel() hostKernel {
	return hostKernel{nominalMs: SvcNominalMs, slice: k.slice}
}

// close removes the scratch files and reports the first failure any
// slice met: a kernel that could not do its work measured nothing.
func (k *svcKernel) close() error {
	for _, f := range k.files {
		f.Close()
		os.Remove(f.Name())
	}
	if k.err != nil {
		return fmt.Errorf("service kernel: %w", k.err)
	}
	return nil
}
