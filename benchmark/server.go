package main

import (
	"bufio"
	"bytes"
	"errors"
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

// The server child: built from source in the checkout, spawned fresh for
// every set-up with its default flags, observed only from outside — its
// stdout for the address, /healthz, /metrics and /proc/<pid>.

// repoRoot walks up from the working directory to the directory whose
// go.mod declares module astra.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			bytes.HasPrefix(b, []byte("module astra\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod declaring module astra above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles ./cmd/astra-server into buildDir and returns the
// binary's path. With a warm build cache this is a no-op link check.
func buildServer(root, buildDir string) (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(buildDir, "astra-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/astra-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/astra-server: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one running astra-server child.
type server struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	// drained is closed when the child's stdout reaches EOF.
	drained chan struct{}
}

// readyTimeout bounds spawn -> /healthz.
const readyTimeout = 20 * time.Second

// startServer spawns the binary on a free loopback port and returns once
// /healthz answers.
func startServer(bin string) (*server, error) {
	s := &server{drained: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:0")
	s.cmd.Stderr = &s.stderr
	// If the benchmark dies, the kernel takes the child with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	// The first stdout line names the bound address; the rest (drain
	// messages) is discarded so the child never blocks on a full pipe.
	addrc := make(chan string, 1)
	go func() {
		defer close(s.drained)
		br := bufio.NewReader(stdout)
		line, _ := br.ReadString('\n')
		addrc <- line
		_, _ = io.Copy(io.Discard, br) // EOF or a closed pipe both mean the child is gone
	}()
	fail := func(err error) (*server, error) {
		s.kill()
		return nil, fmt.Errorf("%v (stderr: %s)", err, strings.TrimSpace(s.stderr.String()))
	}
	select {
	case line := <-addrc:
		const prefix = "astra-server listening on "
		if !strings.HasPrefix(line, prefix) {
			return fail(fmt.Errorf("unexpected first line %q", line))
		}
		s.addr = strings.Fields(line[len(prefix):])[0]
	case <-time.After(readyTimeout):
		return fail(errors.New("no listen line"))
	}
	deadline := time.Now().Add(readyTimeout)
	for {
		if _, err := get(s.addr, "/healthz"); err == nil {
			return s, nil
		} else if time.Now().After(deadline) {
			return fail(fmt.Errorf("/healthz: %v", err))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill ends the child at once and reaps it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already-exited is the only error and is fine
	<-s.drained
	_ = s.cmd.Wait()
}

// stop drains the child with SIGINT, as an operator would, and waits for
// it; a child that does not exit in time is killed and reported. It
// returns the child's peak resident set, read just before the signal.
func (s *server) stop() (peakRSSMB float64, err error) {
	peakRSSMB, rssErr := s.peakRSS()
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		s.kill()
		return 0, fmt.Errorf("signal server: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		<-s.drained
		done <- s.cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			return 0, fmt.Errorf("server exit: %v (stderr: %s)", err, strings.TrimSpace(s.stderr.String()))
		}
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
		return 0, errors.New("server did not drain within 15 s of SIGINT")
	}
	return peakRSSMB, rssErr
}

// peakRSS reads VmHWM from /proc/<pid>/status, in MB.
func (s *server) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// clockTick is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// Linux fixes it at 100 for user space on every architecture.
const clockTick = 10 * time.Millisecond

// cpuTime reads the child's utime+stime.
func (s *server) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name: state is field 3,
	// utime 14, stime 15.
	rest := b[bytes.LastIndexByte(b, ')')+1:]
	f := bytes.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(string(f[11]), 10, 64)
	stime, err2 := strconv.ParseInt(string(f[12]), 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat")
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// scrape is one parsed /metrics exposition.
type scrape struct {
	At     time.Time
	Took   time.Duration
	Series int
	values map[string]float64
}

// get returns a series' value by its full name (labels included), 0 when
// the server has not created it yet.
func (s *scrape) get(name string) float64 { return s.values[name] }

// family sums every series of a labeled family.
func (s *scrape) family(name string) float64 {
	var sum float64
	for k, v := range s.values {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// scrapeMetrics fetches and parses /metrics.
func (s *server) scrapeMetrics() (*scrape, error) {
	t0 := time.Now()
	resp, err := get(s.addr, "/metrics")
	if err != nil {
		return nil, err
	}
	sc := &scrape{At: t0, Took: time.Since(t0), values: map[string]float64{}}
	for _, line := range strings.Split(string(resp.Body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("bad /metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad /metrics line %q", line)
		}
		sc.values[line[:sp]] = v
		sc.Series++
	}
	return sc, nil
}
