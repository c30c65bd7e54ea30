package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cinct/server"
)

// findRoot locates the repository root (the directory holding
// cmd/cinctd) from the working directory: the benchmark is started
// either from the root (run.sh) or from its own directory (go run,
// go test).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "cinctd", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("cannot find cmd/cinctd: run from the repository root or from benchmark/")
}

// buildDaemon compiles cmd/cinctd from the working tree into dir. The
// build is never part of a reported time.
func buildDaemon(root, dir string) (string, error) {
	bin := filepath.Join(dir, "cinctd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/cinctd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/cinctd: %v\n%s", err, out)
	}
	return bin, nil
}

// procSet is the set of daemons this process has running, so that an
// interrupted benchmark can take them down with it instead of leaving
// them behind.
type procSet struct {
	mu   sync.Mutex
	live map[*daemon]struct{}
}

func (ps *procSet) add(d *daemon) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.live == nil {
		ps.live = map[*daemon]struct{}{}
	}
	ps.live[d] = struct{}{}
}

func (ps *procSet) remove(d *daemon) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	delete(ps.live, d)
}

// killAll sends SIGKILL to every running daemon and waits for each.
func (ps *procSet) killAll() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for d := range ps.live {
		d.cmd.Process.Kill() //nolint:errcheck // already-exited is fine
		<-d.exited
	}
}

// daemon is one running cinctd and the generator's two keep-alive
// connections to it.
type daemon struct {
	procs  *procSet
	cmd    *exec.Cmd
	exited chan struct{} // closed once cmd.Wait has returned
	base   string
	hc     *http.Client
	client *server.Client
	log    *os.File
}

// loadConns is the closed loop's client count: never more connections
// than the sandbox has processors.
const loadConns = 2

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches cinctd over dataDir in the served configuration
// (-mmap, default cache and workers) plus extra flags, and returns once
// /v1/indexes answers. The daemon receives only generated files and
// flags: never the seed or a workload name.
func startDaemon(procs *procSet, bin, dataDir, logPath string, extra ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-data", dataDir, "-addr", addr, "-mmap"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: loadConns, MaxConnsPerHost: loadConns}
	d := &daemon{
		procs: procs, cmd: cmd, exited: make(chan struct{}), base: "http://" + addr,
		hc: &http.Client{Transport: tr}, log: logf,
	}
	d.client = server.NewClient(d.base, d.hc)
	procs.add(d)
	go func() {
		cmd.Wait() //nolint:errcheck // a killed daemon's exit status is expected
		close(d.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := d.client.Indexes(context.Background()); err == nil {
			return d, nil
		}
		select {
		case <-d.exited:
			d.release()
			return nil, fmt.Errorf("cinctd exited during start-up; see %s", logPath)
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("cinctd did not answer /v1/indexes within 30s; see %s", logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) release() {
	d.procs.remove(d)
	d.hc.CloseIdleConnections()
	d.log.Close()
}

// stop shuts the daemon down gracefully and waits for it; a daemon
// that ignores SIGTERM for 15 s is killed.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already-exited is fine
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck
		<-d.exited
	}
	d.release()
}

// kill is the crash: SIGKILL, no chance to flush anything.
func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // already-exited is fine
	<-d.exited
	d.release()
}

// cpuSeconds is the daemon's user+system CPU time so far, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks).
func (d *daemon) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", raw)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat line %q", raw)
	}
	const clockTicksPerSecond = 100 // USER_HZ, fixed at 100 on Linux
	return (ut + st) / clockTicksPerSecond, nil
}

// peakRSSMiB is the daemon's high-water resident set (VmHWM).
func (d *daemon) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unexpected VmHWM line %q", sc.Text())
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape fetches /metrics and returns every sample keyed by its full
// series name, labels included (`cinct_http_requests_total{code="200"}`).
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.hc.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return parseMetrics(body), nil
}

func parseMetrics(body []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
