package main

import "time"

// The machines this benchmark runs on are small shared virtual machines
// whose speed drifts by tens of percent over minutes, more than any bound a
// regression check could use. So every timing is reported at a nominal
// machine speed: a fixed calibration kernel — plain Go, nothing of the
// program under test — is timed between operations, and each operation's
// time is scaled by nominal kernel time ÷ measured kernel time. A slowdown
// of the machine stretches kernel and operation alike and cancels; a
// slowdown of the program stretches only the operation and shows in full.
// The report carries the median factor (machine_speed), so raw times are
// recoverable: raw = reported ÷ machine_speed.
//
// The kernel only ever runs while the program under test is idle: between
// the operations of a single-goroutine workload, and between the closed-loop
// slices of serve_*, when every client has been answered. It never competes
// with the program for a processor, so nothing the program does — using more
// cores, say — can slow the kernel and shrink the reported times.

const (
	// calNominal is what one kernel run takes on the reference machine when
	// it is quiet; it only fixes the scale of the reported times.
	calNominal = 480 * time.Microsecond
	calSteps   = 1 << 16
	// calEvery bounds how stale a factor may be, and with five kernel runs
	// per refresh the share of time spent calibrating (about 2 %).
	calEvery = 100 * time.Millisecond
)

// calTable is the kernel's working set. 256 KiB: larger than L1, so cache
// pressure from neighbours shows.
type calTable [1 << 15]uint64

var calFuncs = [8]func(v, z uint64) uint64{
	func(v, z uint64) uint64 { return v + z },
	func(v, z uint64) uint64 { return v ^ z>>3 },
	func(v, z uint64) uint64 { return v - z<<1 },
	func(v, z uint64) uint64 { return v&z + 1 },
	func(v, z uint64) uint64 { return v | z>>7 },
	func(v, z uint64) uint64 { return v*3 + z },
	func(v, z uint64) uint64 { return v>>5 ^ z },
	func(v, z uint64) uint64 { return v + z*5 },
}

// calKernel is a fixed instruction mix with the traits of the code measured
// here — an emulator and a compiler written in Go: three independent
// arithmetic streams (so it issues several instructions per cycle and feels
// a busy sibling thread as they do), an indirect call through a small table
// per step in a repeating order, a data-dependent branch, and loads and
// stores scattered over a calTable.
func calKernel(t *calTable) uint64 {
	x, y, z := uint64(0x9E3779B97F4A7C15), uint64(0x853C49E6748FEA9B), uint64(1)
	var acc uint64
	for i := 0; i < calSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		y = y*6364136223846793005 + 1442695040888963407
		z += z<<3 ^ uint64(i)
		j := x & uint64(len(t)-1)
		v := t[j]
		acc += calFuncs[i&7](v, z)
		if y>>63 == 0 {
			t[j] = v + x
		} else {
			acc ^= v >> 3
		}
	}
	return acc
}

// calibrator hands out the current speed factor, refreshing it when stale.
// It is used from the goroutine that drives the workload, between operations,
// never inside a timed section.
type calibrator struct {
	table   calTable
	at      time.Time
	current float64
	all     []float64
	sink    uint64
}

// factor returns nominal ÷ measured kernel time: below 1 on a machine that
// is currently slower than nominal.
func (c *calibrator) factor() float64 {
	if c.current != 0 && time.Since(c.at) < calEvery {
		return c.current
	}
	var runs [5]float64
	for i := range runs {
		t0 := time.Now()
		c.sink += calKernel(&c.table)
		runs[i] = time.Since(t0).Seconds()
	}
	c.current = calNominal.Seconds() / median(runs[:])
	c.at = time.Now()
	c.all = append(c.all, c.current)
	return c.current
}

// speed is the median factor of the run.
func (c *calibrator) speed() float64 { return median(c.all) }
