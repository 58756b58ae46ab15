package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one lsiserve child.
type proc struct {
	name   string
	url    string
	bootS  float64 // exec → /readyz 200
	cmd    *exec.Cmd
	waited chan struct{}
	log    *lockedBuf
}

type lockedBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

const bootTimeout = 60 * time.Second

// startServer execs lsiserve on a free loopback port, parses the address
// from its "listening on" line and polls /readyz until it answers 200.
func startServer(ctx context.Context, bin, name string, args ...string) (*proc, error) {
	start := time.Now()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, cmd: cmd, waited: make(chan struct{}), log: &lockedBuf{}}
	cmd.Stderr = p.log
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(p.waited)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(p.log, line)
			if _, u, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addr <- strings.TrimSpace(u):
				default:
				}
			}
		}
		_ = cmd.Wait() // the exit status of a server we stop ourselves says nothing
	}()
	fail := func(err error) (*proc, error) {
		p.stop()
		return nil, fmt.Errorf("%s: %w\n%s", name, err, p.log.String())
	}
	select {
	case p.url = <-addr:
	case <-p.waited:
		return fail(errors.New("exited before listening"))
	case <-time.After(bootTimeout):
		return fail(errors.New("never reported its address"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	for {
		if _, code, err := get(ctx, p.url+"/readyz"); err == nil && code == http.StatusOK {
			break
		}
		select {
		case <-p.waited:
			return fail(errors.New("exited before ready"))
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > bootTimeout {
			return fail(errors.New("never became ready"))
		}
	}
	p.bootS = time.Since(start).Seconds()
	return p, nil
}

// stop ends the child — SIGTERM, then SIGKILL after the drain allowance —
// and returns once it has been waited for. Safe to call twice.
func (p *proc) stop() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.waited:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.waited
	}
}

// rssPeakMB is the child's peak resident set (VmHWM) in MB.
func (p *proc) rssPeakMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", p.name)
}

// cpuSeconds is the CPU time the child has used so far, user + system,
// from /proc/<pid>/stat (clock ticks of 10 ms).
func (p *proc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the line.
	i := strings.LastIndexByte(string(data), ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("%s: malformed /proc stat", p.name)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("%s: malformed /proc stat times", p.name)
	}
	return (utime + stime) / 100, nil
}

var plainClient = &http.Client{Timeout: 30 * time.Second}

func get(ctx context.Context, url string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := plainClient.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// scrape is one reading of a server's /metrics: series name with labels →
// value, histogram buckets left out.
type scrape map[string]float64

func scrapeMetrics(ctx context.Context, base string) (scrape, error) {
	body, code, err := get(ctx, base+"/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: status %d", base, code)
	}
	out := scrape{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "_bucket{") {
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
	return out, nil
}
