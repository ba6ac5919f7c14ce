package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// opTimeout bounds one invocation of the binary.
const opTimeout = 60 * time.Second

// proc is one finished invocation of the binary.
type proc struct {
	exit   int // -1 when killed by a signal
	wall   float64
	cpu    float64
	rssMB  float64
	stderr string
}

// run settles the disk, starts argv in its own process group, waits for
// it, and returns the wall time plus the rusage of the whole tree: wait4
// reports the child's own usage plus that of every descendant it waited
// for (the coordinator waits for its workers), and ru_maxrss is the
// largest of them. The child's stderr is kept for the output checks; its
// stdout is discarded (record output goes to -out).
func (b *bench) run(argv ...string) (proc, error) {
	settle()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.repro, argv...)
	// A file, not a pipe: Wait would also wait for every process that
	// inherited a pipe's write end.
	errPath := b.path("stderr.log")
	errFile, err := os.Create(errPath)
	if err != nil {
		return proc{}, err
	}
	defer errFile.Close()
	cmd.Stderr = errFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	start := time.Now()
	err = cmd.Run()
	wall := time.Since(start).Seconds()
	var exitErr *exec.ExitError
	if err != nil && !errors.As(err, &exitErr) {
		return proc{}, fmt.Errorf("run repro %s: %w", strings.Join(argv, " "), err)
	}
	// Reap anything left in the group (a worker that outlived a killed
	// coordinator) before the next operation starts.
	_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return proc{}, errors.New("no rusage for child process")
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	stderr, err := os.ReadFile(errPath)
	if err != nil {
		return proc{}, err
	}
	p := proc{exit: cmd.ProcessState.ExitCode(), wall: wall, cpu: cpu, rssMB: float64(ru.Maxrss) / 1024, stderr: string(stderr)}
	if ctx.Err() != nil {
		p.stderr += fmt.Sprintf("\nperfbench: killed after %v\n", opTimeout)
	}
	return p, nil
}

// settle flushes dirty data to disk (sync), so a timed step does not
// start behind the writeback and journal commits of the step before it:
// on a throttled disk those stall the program's own fsyncs and file
// creations by tens of milliseconds.
func settle() { syscall.Sync() }

// failRun logs a failed invocation's stderr tail.
func (b *bench) failRun(what string, p proc) {
	tail := p.stderr
	if len(tail) > 2000 {
		tail = tail[len(tail)-2000:]
	}
	fmt.Fprintf(b.log, "perfbench: %s exited %d\n%s\n", what, p.exit, tail)
}

// fresh replaces a directory under the run's work dir with an empty one.
// synced says whether it may hold files the program fsynced (coordinator
// state and caches): those are moved into the trash, because unlinking a
// file whose blocks were just committed waits for a journal commit, tens
// of milliseconds per file on throttled disks. Everything else is
// deleted, which is cheap and drops its dirty pages before writeback.
func (b *bench) fresh(name string, synced bool) (string, error) {
	dir := b.path(name)
	var err error
	if synced {
		err = b.discard(dir)
	} else {
		err = os.RemoveAll(dir)
	}
	if err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// discard moves path, if it exists, into the trash directory, which
// `rm -rf .bench_build` clears.
func (b *bench) discard(path string) error {
	if _, err := os.Lstat(path); errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err := os.MkdirAll(b.trash, 0o755); err != nil {
		return err
	}
	b.discarded++
	return os.Rename(path, filepath.Join(b.trash, fmt.Sprintf("%d-%d", time.Now().UnixNano(), b.discarded)))
}
