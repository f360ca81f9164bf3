package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Process plumbing: building the binaries under test, starting daemons
// on free loopback ports, reading their CPU time and RSS from /proc, and
// always reaping them.

// buildDir holds everything the benchmark writes apart from
// benchmark/out: binaries, per-run scratch, daemon logs and traces.
const buildDir = ".bench_build"

var sutBinaries = []string{"gpmrbench", "gpmrd", "gpmrfleet"}

// env is one invocation's view of the checkout.
type env struct {
	bin    string // directory of the built binaries
	runDir string // this invocation's scratch directory
	self   string // the benchmark's own executable, for child modes
}

// prepare checks that the working directory is a checkout of the
// repository, builds the binaries under test, and creates the scratch
// directory. Building happens before any clock starts.
func prepare(tag string) (*env, error) {
	mod, err := os.ReadFile("go.mod")
	if err != nil || !bytes.HasPrefix(mod, []byte("module repro")) {
		return nil, errors.New("run from the root of the repository checkout (go.mod of module repro not found)")
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	e := &env{
		bin:    filepath.Join(root, buildDir, "bin"),
		runDir: filepath.Join(root, buildDir, "run", fmt.Sprintf("%s-%d", tag, os.Getpid())),
		self:   self,
	}
	if err := os.MkdirAll(e.runDir, 0o755); err != nil {
		return nil, err
	}
	args := []string{"build", "-o", e.bin + string(filepath.Separator)}
	for _, b := range sutBinaries {
		args = append(args, "./cmd/"+b)
	}
	cmd := exec.Command("go", args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("building the binaries under test: %w", err)
	}
	return e, nil
}

func (e *env) binary(name string) string { return filepath.Join(e.bin, name) }

// cleanup removes the scratch directory; a failed run keeps it for the
// daemon logs.
func (e *env) cleanup(keep bool) {
	if keep {
		fmt.Fprintf(os.Stderr, "benchmark: scratch kept in %s\n", e.runDir)
		return
	}
	os.RemoveAll(e.runDir)
}

// freeAddr returns a loopback address with a port that was free a moment
// ago. The daemons log the flag value, not the bound port, so the harness
// picks the port itself rather than asking for :0.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// daemon is one running process of the system under test.
type daemon struct {
	name string
	cmd  *exec.Cmd
	url  string
	log  *os.File
	done chan struct{} // closed when Wait has returned
}

// startDaemon starts bin with args plus "-addr <free port>" and waits for
// /healthz to answer 200. The port was free a moment before the daemon
// binds it, not necessarily when it does, so a failed start is tried
// again on another port.
func (e *env) startDaemon(name, bin string, args ...string) (d *daemon, err error) {
	for attempt := 0; attempt < 3; attempt++ {
		if d, err = e.startDaemonOnce(name, bin, args...); err == nil {
			return d, nil
		}
	}
	return nil, err
}

func (e *env) startDaemonOnce(name, bin string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(e.runDir, name+".log"))
	if err != nil {
		return nil, err
	}
	d := &daemon{name: name, url: "http://" + addr, log: logf, done: make(chan struct{})}
	d.cmd = exec.Command(e.binary(bin), append([]string{"-addr", addr}, args...)...)
	d.cmd.Stderr = logf // stdout, the drain report, is not needed: the digests are checked by replay
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() {
		d.cmd.Wait()
		close(d.done)
	}()
	if err := d.waitHealthy(10 * time.Second); err != nil {
		d.stop(time.Second)
		return nil, err
	}
	return d, nil
}

func (d *daemon) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("%s exited before it was healthy (see %s)", d.name, d.log.Name())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy on %s after %v", d.name, d.url, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks the daemon to drain (SIGINT), waits up to timeout, then
// kills it.
func (d *daemon) stop(timeout time.Duration) {
	d.cmd.Process.Signal(syscall.SIGINT)
	select {
	case <-d.done:
	case <-time.After(timeout):
		d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
}

// clockTick is the kernel's USER_HZ; it is 100 on every Linux port Go
// supports.
const clockTick = 100

// cpuSeconds reads the live process's user+system CPU time from /proc.
func (d *daemon) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after the last ')'.
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", d.name)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64) // field 14, utime
	st, err2 := strconv.ParseFloat(f[12], 64) // field 15, stime
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat for %s", d.name)
	}
	return (ut + st) / clockTick, nil
}

// statusKB reads one "Vm...: N kB" line of /proc/<pid>/status.
func (d *daemon) statusKB(key string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				return strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("no %s in /proc status of %s", key, d.name)
}

// procSet is the set of processes that make up the system under test in
// one serving workload; CPU and RSS are summed over it.
type procSet []*daemon

func (ps procSet) cpuSeconds() (float64, error) {
	var sum float64
	for _, d := range ps {
		c, err := d.cpuSeconds()
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

func (ps procSet) sumKB(key string) (float64, error) {
	var sum float64
	for _, d := range ps {
		kb, err := d.statusKB(key)
		if err != nil {
			return 0, err
		}
		sum += kb
	}
	return sum, nil
}

// stopAll stops the daemons in order.
func (ps procSet) stopAll(timeout time.Duration) {
	for _, d := range ps {
		d.stop(timeout)
	}
}

// childUsage is what a finished batch child cost.
type childUsage struct {
	cpuS  float64
	rssMB float64
}

func usageOf(ps *os.ProcessState) childUsage {
	u := childUsage{cpuS: ps.UserTime().Seconds() + ps.SystemTime().Seconds()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		u.rssMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return u
}
