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
	"strconv"
	"strings"
	"syscall"
	"time"
)

// readyTimeout bounds the wait for a spawned server's first 200 on /healthz.
const readyTimeout = 60 * time.Second

// server is one dio-server subprocess.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	dataDir string
	logPath string
	// exited is closed once Wait has returned.
	exited chan struct{}
}

// freeAddr returns a loopback address no one is listening on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spawn starts bin on dataDir with default flags and waits until /healthz
// answers 200. Only -addr, -data-dir and -selfscrape=false are passed:
// self-scrape moves the TSDB head at wall-clock offsets and would flip the
// answer-cache epoch in the middle of a run. It returns the time from exec
// to ready.
func spawn(ctx context.Context, bin, dataDir string) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, fmt.Errorf("finding a free port: %w", err)
	}
	logPath := dataDir + ".log"
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, "-addr", addr, "-data-dir", dataDir, "-selfscrape=false")
	cmd.Stdout, cmd.Stderr = logFile, logFile
	started := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, dataDir: dataDir, logPath: logPath, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed server says nothing
		close(s.exited)
	}()

	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := started.Add(readyTimeout)
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(started), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("dio-server exited before it was ready:\n%s", s.logTail())
		case <-ctx.Done():
			s.kill()
			return nil, 0, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, 0, fmt.Errorf("dio-server not ready after %v:\n%s", readyTimeout, s.logTail())
		}
	}
}

// kill sends SIGKILL and returns once the process has ended.
func (s *server) kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL) // it may have exited already
	<-s.exited
}

// logTail returns the last lines the server logged.
func (s *server) logTail() string {
	data, err := os.ReadFile(s.logPath)
	if err != nil {
		return err.Error()
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) > 15 {
		lines = lines[len(lines)-15:]
	}
	return string(bytes.Join(lines, []byte("\n")))
}

// cpuSeconds returns the process's user plus system CPU time so far.
func (s *server) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(data))
}

// clockTick is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat; it is 100 on every Linux platform Go supports.
const clockTick = 100

// parseStatCPU extracts utime+stime, in seconds, from a /proc/<pid>/stat
// line. The command name may hold spaces and parentheses, so fields are
// counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad CPU fields in /proc stat line")
	}
	return (ut + st) / clockTick, nil
}

// peakRSSMB returns the process's resident-set high-water mark in MB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", sc.Text())
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape reads the server's /metrics exposition.
func (s *server) scrape(client *http.Client) (exposition, error) {
	resp, err := client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseExposition(resp.Body)
}

// exposition maps each sample line of a Prometheus text exposition, name
// and label set as written, to its value.
type exposition map[string]float64

func parseExposition(r io.Reader) (exposition, error) {
	out := exposition{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("bad exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad exposition line %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds up the samples of metric name whose label set holds every given
// `label="value"` pair.
func (e exposition) sum(name string, pairs ...string) float64 {
	var total float64
next:
	for key, v := range e {
		if key != name && !strings.HasPrefix(key, name+"{") {
			continue
		}
		for _, p := range pairs {
			if !strings.Contains(key, p) {
				continue next
			}
		}
		total += v
	}
	return total
}
