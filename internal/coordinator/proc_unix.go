//go:build unix

package coordinator

import (
	"os"
	"os/exec"
	"syscall"
)

// pidAlive reports whether a process with the given pid currently
// runs: signal 0 probes existence without delivering anything, and an
// exited but unreaped process (a zombie) counts as dead.
func pidAlive(pid int) bool {
	proc, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	return proc.Signal(syscall.Signal(0)) == nil && !pidExited(pid)
}

// hardenWorker ties the worker's lifetime to the coordinator's: on
// Linux, Pdeathsig delivers SIGKILL to the worker the moment the
// coordinator dies, so even a SIGKILLed coordinator leaves no orphan
// workers appending to shard files a resumed coordinator is about to
// truncate. On other unixes the field is unavailable and workers are
// only killed through context cancellation.
func hardenWorker(cmd *exec.Cmd) {
	setPdeathsig(cmd)
}
