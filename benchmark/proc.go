package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// placement is where the benchmark's processes run: the load generator on
// the first allowed CPU, every server process on the last, each with one
// Go processor. With one CPU allowed both share it.
type placement struct {
	loadCPU, serverCPU int
	nproc              int
	pinned             bool
}

// placementEnv carries the placement across the pinning re-exec: once the
// load generator is confined to one CPU it can no longer see the others.
const placementEnv = "DOSGI_BENCH_PLACEMENT"

func (p placement) String() string {
	return fmt.Sprintf("%d,%d,%d,%t", p.loadCPU, p.serverCPU, p.nproc, p.pinned)
}

func parsePlacement(s string) (placement, bool) {
	var p placement
	_, err := fmt.Sscanf(s, "%d,%d,%d,%t", &p.loadCPU, &p.serverCPU, &p.nproc, &p.pinned)
	return p, err == nil
}

// allowedCPUs parses Cpus_allowed_list of /proc/self/status ("0-1,4").
func allowedCPUs() []int {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return nil
	}
	var cpus []int
	for _, line := range strings.Split(string(data), "\n") {
		list, ok := strings.CutPrefix(line, "Cpus_allowed_list:")
		if !ok {
			continue
		}
		for _, part := range strings.Split(strings.TrimSpace(list), ",") {
			lo, hi, isRange := strings.Cut(part, "-")
			a, err := strconv.Atoi(lo)
			if err != nil {
				return nil
			}
			b := a
			if isRange {
				if b, err = strconv.Atoi(hi); err != nil {
					return nil
				}
			}
			for c := a; c <= b; c++ {
				cpus = append(cpus, c)
			}
		}
	}
	return cpus
}

// pinSelf makes this process the pinned load generator. The first call
// re-executes the binary under taskset on the first allowed CPU with
// GOMAXPROCS=1 and never returns; the re-executed process finds the
// placement in its environment. Without taskset (or /proc) the process
// runs where it is and reports pinned=false.
func pinSelf() placement {
	if p, ok := parsePlacement(os.Getenv(placementEnv)); ok {
		return p
	}
	runtime.GOMAXPROCS(1)
	p := placement{nproc: runtime.NumCPU()}
	cpus := allowedCPUs()
	taskset, err := exec.LookPath("taskset")
	self, errSelf := os.Executable()
	if len(cpus) == 0 || err != nil || errSelf != nil {
		return p
	}
	p.loadCPU, p.serverCPU, p.nproc, p.pinned = cpus[0], cpus[len(cpus)-1], len(cpus), true
	argv := append([]string{"taskset", "-c", strconv.Itoa(p.loadCPU), self}, os.Args[1:]...)
	env := append(os.Environ(), "GOMAXPROCS=1", placementEnv+"="+p.String())
	err = syscall.Exec(taskset, argv, env)
	// Exec only returns on failure: carry on unpinned.
	fmt.Fprintf(os.Stderr, "dosgi-bench: pinning failed (%v), running unpinned\n", err)
	p.pinned = false
	return p
}

// child is one server process of a workload.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines chan string // stdout and stderr, line by line; closed at EOF
}

// spawn starts bin on the server CPU with one Go processor. The child
// gets SIGKILL if the benchmark dies, and exits on its own when its
// stdin closes (the holder role; dosgid ignores stdin).
func spawn(pl placement, bin string, args ...string) (*child, error) {
	name, argv := bin, args
	if pl.pinned {
		name = "taskset"
		argv = append([]string{"-c", strconv.Itoa(pl.serverCPU), bin}, args...)
	}
	cmd := exec.Command(name, argv...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout, cmd.Stderr = pw, pw
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	pw.Close()
	c := &child{cmd: cmd, stdin: stdin, lines: make(chan string, 64)} // 64: a start-up burst of log lines must not block the child
	go func() {
		defer close(c.lines)
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			select {
			case c.lines <- sc.Text():
			default: // nobody reads after readiness; drop
			}
		}
	}()
	return c, nil
}

// awaitLine returns the first output line containing marker.
func (c *child) awaitLine(marker string, within time.Duration) (string, error) {
	deadline := time.After(within)
	for {
		select {
		case line, ok := <-c.lines:
			if !ok {
				return "", fmt.Errorf("child exited before printing %q", marker)
			}
			if strings.Contains(line, marker) {
				return line, nil
			}
		case <-deadline:
			return "", fmt.Errorf("child did not print %q within %v", marker, within)
		}
	}
}

// stop ends the child and waits for it: SIGTERM first, SIGKILL after 2s.
func (c *child) stop() {
	c.stdin.Close()
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = c.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		_ = c.cmd.Process.Kill()
		<-done
	}
}

func (c *child) cpu() time.Duration { return procCPU(c.cmd.Process.Pid) }

// selfCPU is procCPU of this process. getrusage would do, but the kernel
// may account it by the tick, and a tick is a tenth of a short segment.
func selfCPU() time.Duration { return procCPU(os.Getpid()) }

// procCPU is the user+sys time a process has burnt so far: the run time
// of every thread from /proc/<pid>/task/*/schedstat (nanoseconds), or
// utime+stime of /proc/<pid>/stat (clock ticks) where schedstat is absent.
func procCPU(id int) time.Duration {
	pid := strconv.Itoa(id)
	tasks, _ := filepath.Glob("/proc/" + pid + "/task/*/schedstat")
	var total int64
	found := false
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between glob and read
		}
		if f := strings.Fields(string(data)); len(f) > 0 {
			if ns, err := strconv.ParseInt(f[0], 10, 64); err == nil {
				total += ns
				found = true
			}
		}
	}
	if found {
		return time.Duration(total)
	}
	data, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the name.
	_, rest, _ := strings.Cut(string(data), ") ")
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	const clockTick = 10 * time.Millisecond // USER_HZ is 100 on every Linux ABI
	return time.Duration(ut+st) * clockTick
}

// rssMB is the child's resident set in MB (VmRSS of /proc/<pid>/status).
func (c *child) rssMB() float64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(c.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(v)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
