package main

// Subprocess hygiene for the daemon workloads: every nvramd child listens
// on port 0 and announces RECOVERED=/ADDR=, lives in a private state
// directory, is waited on with a hard timeout, and is killed — and its
// directory removed — on every exit path, Ctrl-C included.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cleanup holds what must not outlive the benchmark.
var cleanup struct {
	mu    sync.Mutex
	procs map[*daemonProc]struct{}
	dirs  map[string]struct{}
}

// cleanupAll kills every live child and removes every state directory.
func cleanupAll() {
	cleanup.mu.Lock()
	procs := make([]*daemonProc, 0, len(cleanup.procs))
	for p := range cleanup.procs {
		procs = append(procs, p)
	}
	dirs := make([]string, 0, len(cleanup.dirs))
	for d := range cleanup.dirs {
		dirs = append(dirs, d)
	}
	cleanup.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	for _, d := range dirs {
		removeStateDir(d)
	}
}

// cleanupOnSignal makes Ctrl-C and SIGTERM take the children down too.
func cleanupOnSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanupAll()
		os.Exit(130)
	}()
}

// newStateDir makes a private directory under base for one daemon.
func newStateDir(base, name string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(base, name+"-")
	if err != nil {
		return "", err
	}
	cleanup.mu.Lock()
	if cleanup.dirs == nil {
		cleanup.dirs = map[string]struct{}{}
	}
	cleanup.dirs[dir] = struct{}{}
	cleanup.mu.Unlock()
	return dir, nil
}

func removeStateDir(dir string) {
	os.RemoveAll(dir)
	cleanup.mu.Lock()
	delete(cleanup.dirs, dir)
	cleanup.mu.Unlock()
}

// daemonProc is one running nvramd child.
type daemonProc struct {
	cmd       *exec.Cmd
	recovered int
	addr      string
	stderr    bytes.Buffer
	done      chan struct{} // closed once Wait has returned
	started   time.Time     // just before exec
}

// startDaemon launches bin on the daemon's CPU (see affinity.go) and
// parses its announcement. The child dies with this process even if this
// process is SIGKILLed (Pdeathsig).
func startDaemon(bin string, args ...string) (*daemonProc, error) {
	p := &daemonProc{done: make(chan struct{})}
	p.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	p.cmd.Stderr = &p.stderr
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p.started = time.Now()
	if err := onCPU(daemonCPU, p.cmd.Start); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	cleanup.mu.Lock()
	if cleanup.procs == nil {
		cleanup.procs = map[*daemonProc]struct{}{}
	}
	cleanup.procs[p] = struct{}{}
	cleanup.mu.Unlock()

	lines := make(chan string, 4) // RECOVERED=, ADDR= and at most METRICS=
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default: // nobody is reading any more; keep draining the pipe
			}
		}
		close(lines)
		p.cmd.Wait()
		close(p.done)
	}()

	timeout := time.After(30 * time.Second)
	haveRecovered := false
	for p.addr == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				p.kill()
				return nil, fmt.Errorf("%s exited before announcing its address\n%s", bin, p.stderr.String())
			}
			if v, found := strings.CutPrefix(line, "RECOVERED="); found {
				n, err := strconv.Atoi(v)
				if err != nil {
					p.kill()
					return nil, fmt.Errorf("bad announcement %q", line)
				}
				p.recovered, haveRecovered = n, true
			}
			if v, found := strings.CutPrefix(line, "ADDR="); found {
				p.addr = v
			}
		case <-timeout:
			p.kill()
			return nil, fmt.Errorf("%s did not announce its address within 30s\n%s", bin, p.stderr.String())
		}
	}
	if !haveRecovered {
		p.kill()
		return nil, fmt.Errorf("%s announced ADDR= without RECOVERED=", bin)
	}
	return p, nil
}

// kill SIGKILLs the child — the crash under test in daemon_park — and
// waits for it to be gone. Safe to call twice.
func (p *daemonProc) kill() {
	p.cmd.Process.Kill()
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
	}
	cleanup.mu.Lock()
	delete(cleanup.procs, p)
	cleanup.mu.Unlock()
}

// peakRSSMiB reads the child's resident high-water mark (VmHWM).
func (p *daemonProc) peakRSSMiB() (float64, error) {
	return peakRSSMiB(strconv.Itoa(p.cmd.Process.Pid))
}

// peakRSSMiB reads VmHWM of a process ("self" for this one).
func peakRSSMiB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
