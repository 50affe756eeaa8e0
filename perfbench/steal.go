package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// On a virtual machine the hypervisor runs other guests on this guest's
// CPUs now and then; Linux counts that time as steal. Steal adds to the
// wall time of work that keeps every CPU busy but not to its CPU time,
// and on the shared 2-vCPU VM this benchmark was built on it moved
// between 0.5% and 30% from one run to the next (README.md).
// mine_wall_ms therefore removes the steal share of the interval each
// Mine call ran in: it is the wall time the call would have taken on
// CPUs that ran only this guest. A change that costs wall time but no
// CPU time (lost parallelism, lock contention, sleeps) still moves it
// in full.

// stealClock measures the steal share of the machine's CPU time over an
// interval.
type stealClock struct {
	start  time.Time
	steal0 float64
}

func startStealClock() (stealClock, error) {
	steal, _, err := readSteal()
	return stealClock{start: time.Now(), steal0: steal}, err
}

// share returns the stolen CPU time since the clock started as a share
// of the machine's CPU time over the same interval.
func (c stealClock) share() (float64, error) {
	wall := time.Since(c.start).Seconds()
	steal, cpus, err := readSteal()
	if err != nil {
		return 0, err
	}
	return min(max((steal-c.steal0)/(wall*float64(cpus)), 0), 0.9), nil
}

// netOfSteal removes a steal share from a wall time measured while
// every CPU was busy.
func netOfSteal(wall, share float64) float64 { return wall * (1 - share) }

// readSteal returns the steal time of every CPU of the machine so far,
// in seconds, and the number of CPUs, from /proc/stat.
func readSteal() (seconds float64, cpus int, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 8 && f[0] == "cpu":
			// user nice system idle iowait irq softirq steal …
			ticks, err := strconv.ParseFloat(f[8], 64)
			if err != nil {
				return 0, 0, fmt.Errorf("/proc/stat steal: %w", err)
			}
			seconds = ticks / clockTicks
		case len(f) > 0 && strings.HasPrefix(f[0], "cpu"):
			cpus++
		}
	}
	if cpus == 0 {
		return 0, 0, fmt.Errorf("/proc/stat lists no CPUs")
	}
	return seconds, cpus, nil
}
