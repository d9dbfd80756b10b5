//go:build linux

package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// outDir holds everything a run leaves behind: the built daemon and the
// Chrome traces. It is listed in .gitignore.
const outDir = "benchmark/out"

// pinnedEnv is what every daemon (and this process, for its in-process
// oracle and ladder) runs under: the on-disk autotuner and cost calibration
// are replaced by their deterministic built-ins, so two runs execute the
// same kernels and routes and nothing is written outside the checkout.
var pinnedEnv = []string{"QFW_TUNE=deterministic", "QFW_COST=deterministic"}

const (
	endpointTimeout = 15 * time.Second
	stopGrace       = 10 * time.Second
)

// buildQfwd compiles cmd/qfwd from the checkout's sources. It runs on every
// invocation (a cached build is ~0.3 s) so a stale binary can never be
// measured against new sources.
func buildQfwd() (string, error) {
	if _, err := os.Stat("cmd/qfwd"); err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "qfwd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/qfwd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/qfwd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemonEnv is the inherited environment with every QFW_* knob removed and
// the pins added.
func daemonEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "QFW_") {
			env = append(env, kv)
		}
	}
	return append(env, pinnedEnv...)
}

// daemon is one running qfwd process.
type daemon struct {
	cmd        *exec.Cmd
	addr       string // DEFw TCP endpoint
	metricsURL string // http://host:port/metrics when started with -metrics-addr
	drained    chan struct{}
}

// startDaemon spawns qfwd with its default flags (plus -metrics-addr for the
// traced run) and waits for the endpoint line it prints.
func startDaemon(bin string, metrics bool) (*daemon, error) {
	var args []string
	if metrics {
		args = append(args, "-metrics-addr", "127.0.0.1:0")
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = daemonEnv()
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn qfwd: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	// "serving" is the last start-up line; everything the benchmark needs
	// has been printed by then. The reader keeps draining afterwards so the
	// daemon never blocks on a full pipe.
	ready := make(chan error, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "qfwd: DEFw endpoint "):
				d.addr = strings.TrimPrefix(line, "qfwd: DEFw endpoint ")
			case strings.HasPrefix(line, "qfwd: telemetry endpoint "):
				d.metricsURL = strings.Fields(strings.TrimPrefix(line, "qfwd: telemetry endpoint "))[0]
			case strings.HasPrefix(line, "qfwd: serving;"):
				ready <- nil
				_, _ = io.Copy(io.Discard, stdout) // nothing below is parsed
				return
			}
		}
		ready <- fmt.Errorf("qfwd exited before serving")
	}()
	select {
	case err = <-ready:
	case <-time.After(endpointTimeout):
		err = fmt.Errorf("qfwd printed no endpoint within %s", endpointTimeout)
	}
	if err == nil && (d.addr == "" || metrics && d.metricsURL == "") {
		err = fmt.Errorf("qfwd start-up output lacks an endpoint line")
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop sends SIGTERM, waits for the daemon to drain and exit, and kills it
// if it does not. It returns only once the process is gone.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only when already exited
	timer := time.AfterFunc(stopGrace, func() { _ = d.cmd.Process.Kill() })
	<-d.drained
	_ = d.cmd.Wait() // exit status is irrelevant once we asked it to stop
	timer.Stop()
}

// cpuMS returns the daemon's user+system CPU time from /proc/<pid>/stat.
func (d *daemon) cpuMS() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the line, i.e. indexes 11 and 12 after ") ".
	i := strings.LastIndexByte(string(raw), ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat format")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat format")
	}
	const clockTickMS = 10 // USER_HZ is 100 on every Linux ABI Go supports
	return (ut + st) * clockTickMS, nil
}

// peakRSSMiB returns the daemon's VmHWM (peak resident set).
func (d *daemon) peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("VmHWM not found")
}

// selfCPUMS returns this process's user+system CPU time.
func selfCPUMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}
