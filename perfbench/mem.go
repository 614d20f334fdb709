package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// The resident set and the host's CPU steal, read from /proc.

// rssSampler samples the resident set of this process and of the
// processes it started, every 10 ms, until stopped. A sampled median is
// steadier than the high-water mark on workloads that allocate fast:
// there the peak lands wherever the garbage collector happened to run.
type rssSampler struct {
	pids    func() []int
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MB
}

func startRSS(pids func() []int) *rssSampler {
	s := &rssSampler{pids: pids, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	var total float64
	for _, pid := range s.pids() {
		total += residentMB(pid)
	}
	s.samples = append(s.samples, total)
}

// finish stops the sampler, waits for it, and returns its samples.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}

// hostTicks reads the machine's cumulative CPU ticks and the share of
// them stolen by the hypervisor, from the first line of /proc/stat.
func hostTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ { // user … steal; guest time is inside user
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// residentMB reads a process's resident set from /proc (0 if gone).
func residentMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
