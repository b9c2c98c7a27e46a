//go:build unix

package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// moduleRoot walks up from the working directory to the repository root
// (`go run ./bench` starts there, `go test` starts in bench/).
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(strings.TrimSpace(string(data)), "module disarcloud") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no disarcloud go.mod above the working directory")
		}
		dir = parent
	}
}

// buildDaemon compiles cmd/disard into outDir and returns the binary's path
// and the build time. The toolchain cache makes every build after the first
// a no-op, which is why build time is reported apart from set-up.
func buildDaemon(ctx context.Context, root, outDir string) (string, float64, error) {
	bin := filepath.Join(outDir, "disard")
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/disard")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("bench: go build ./cmd/disard: %w\n%s", err, out)
	}
	return bin, time.Since(start).Seconds(), nil
}

// freeAddr picks a loopback port by bind-and-release.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// procSet owns every process the benchmark starts, so that normal exit,
// errors and SIGINT all end with the same killAll.
type procSet struct {
	mu    sync.Mutex
	procs map[*proc]struct{}
}

// proc is one daemon or worker process in its own process group.
type proc struct {
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once Wait returned
	set  *procSet
}

// start launches bin with args, stdout and stderr going to logPath.
func (s *procSet) start(bin, logPath string, args ...string) (*proc, error) {
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// Own process group: a kill reaches anything the daemon spawned, and a
	// terminal's Ctrl-C reaches only the benchmark, which then cleans up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("bench: start %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, log: logFile, done: make(chan struct{}), set: s}
	go func() { _ = cmd.Wait(); close(p.done) }() // exit status of a killed daemon carries nothing
	s.mu.Lock()
	if s.procs == nil {
		s.procs = make(map[*proc]struct{})
	}
	s.procs[p] = struct{}{}
	s.mu.Unlock()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// exited reports whether the process has ended on its own.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// kill SIGKILLs the process group and waits for the process to end. The
// daemon gets no chance to write its knowledge base back, by design.
func (p *proc) kill() {
	_ = syscall.Kill(-p.pid(), syscall.SIGKILL) // ESRCH when it already exited
	<-p.done
	p.log.Close()
	p.set.mu.Lock()
	delete(p.set.procs, p)
	p.set.mu.Unlock()
}

func (s *procSet) killAll() {
	s.mu.Lock()
	all := make([]*proc, 0, len(s.procs))
	for p := range s.procs {
		all = append(all, p)
	}
	s.mu.Unlock()
	for _, p := range all {
		p.kill()
	}
}

// clockTicksPerSecond is USER_HZ, the unit of /proc/<pid>/stat times; it is
// 100 on every Linux ABI Go supports.
const clockTicksPerSecond = 100

// cpuSeconds returns utime+stime of the process from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ')'.
	rest := string(data)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 13 {
		return 0, fmt.Errorf("bench: short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: unparsable /proc/%d/stat", pid)
	}
	return (utime + stime) / clockTicksPerSecond, nil
}

// peakRSSMB returns VmHWM of the process in MiB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc/%d/status", pid)
}

// loadAverage1 returns the 1-minute load average.
func loadAverage1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	fields := strings.Fields(string(data))
	if err != nil || len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64) // 0 when unreadable: the flag is advisory
	return v
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}
