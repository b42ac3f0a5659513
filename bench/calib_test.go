package main

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// TestCalibratedEndToEnd checks the host scaling on a synthetic phase of
// two one-second windows: the first on the reference host (slowdown 1)
// with 100 ms held idle for calibration, the second at the slowdown that
// halves serving speed, with 0.2 s stolen from every CPU.
func TestCalibratedEndToEnd(t *testing.T) {
	sec := time.Second
	half := math.Pow(2, 1/sensitivity)
	res := &result{
		marks: []cpuMark{
			{0, 0, 0},
			{sec, 210 * time.Millisecond, 0},
			{2 * sec, 420 * time.Millisecond, time.Duration(runtime.NumCPU()) * 200 * time.Millisecond},
		},
		host: []hostSample{
			{at: 300 * time.Millisecond, paused: 100 * time.Millisecond, cpu: 10 * time.Millisecond, slowdown: 1},
			{at: 600 * time.Millisecond, slowdown: 1},
			{at: 1300 * time.Millisecond, cpu: 10 * time.Millisecond, slowdown: half},
			{at: 1600 * time.Millisecond, slowdown: half},
		},
	}
	res.attempted = 150
	for i := 0; i < 150; i++ {
		at, l := sec/2, 1.0 // 100 epochs of 1 ms in the first window
		if i >= 100 {
			at, l = 3*sec/2, 2.0 // 50 epochs of 2 ms in the second
		}
		res.epochs++
		res.done = append(res.done, at)
		res.noteLatency(time.Duration(l * float64(time.Millisecond)))
	}
	rep := &report{}
	endToEnd(rep, wlWalk, res)
	for _, c := range []struct {
		name string
		want float64
	}{
		// Serving time: 0.9 s, plus 0.8 s at half speed = 0.4 s.
		{"epochs_per_s", 150 / 1.3},
		{"raw.epochs_per_s", 150 / 1.7},
		// CPU less the calibration's: 200 ms, plus 200 ms at half speed.
		{"cpu_ms_per_epoch", 300.0 / 150},
		{"raw.cpu_ms_per_epoch", 400.0 / 150},
		// Every latency is 1 ms at the reference speed.
		{"epoch_p50_ms", 1},
		{"epoch_p99_ms", 1},
		{"raw.epoch_p99_ms", 2},
		{"host.slowdown", (1 + half) / 2},
	} {
		m, ok := rep.get(c.name)
		if !ok || math.Abs(m.Value-c.want) > 1e-9 {
			t.Errorf("%s = %v (present %v), want %v", c.name, m.Value, ok, c.want)
		}
	}
	if len(rep.Timeline) != 2 || rep.Timeline[1].Slowdown != half || rep.Timeline[0].PausedMS != 100 {
		t.Errorf("timeline %+v, want two windows, the first paused 100 ms, the second slowed %.3gx", rep.Timeline, half)
	}
}

// TestKernelRepeats checks that every calibration pass does the same
// work and that a calibration reads a positive slowdown.
func TestKernelRepeats(t *testing.T) {
	k := newKernel()
	if a, b := k.run(), k.run(); a != b || a <= 0 {
		t.Fatalf("kernel passes returned %v and %v, want the same positive weight", a, b)
	}
	if f := newCalibrator().burst(3); !(f > 0) {
		t.Fatalf("slowdown %v, want > 0", f)
	}
}
