//go:build linux

package coordinator

import (
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
)

func setPdeathsig(cmd *exec.Cmd) {
	if cmd.SysProcAttr == nil {
		cmd.SysProcAttr = &syscall.SysProcAttr{}
	}
	cmd.SysProcAttr.Pdeathsig = syscall.SIGKILL
}

// procStat returns the space-separated fields of /proc/<pid>/stat that
// follow the parenthesized comm, starting at field 3 (state); nil when
// the process does not exist or the file cannot be parsed. The comm
// field may itself contain spaces or parentheses, so the split starts
// after the LAST ')'.
func procStat(pid int) []string {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return nil
	}
	s := string(data)
	close := strings.LastIndexByte(s, ')')
	if close < 0 {
		return nil
	}
	return strings.Fields(s[close+1:])
}

// pidStartTime returns a kernel-stable identity token for the process:
// the starttime field of /proc/<pid>/stat (clock ticks since boot at
// process start). A pid alone is reusable — a lock owner can die and an
// unrelated process can inherit its pid — but (pid, starttime) is
// unique for the machine's uptime, which is what makes lock staleness
// decidable. Empty when the process does not exist or the field cannot
// be read (the caller then falls back to pid-only liveness).
func pidStartTime(pid int) string {
	fields := procStat(pid)
	if len(fields) < 20 {
		return "" // starttime is field 22, index 19 after the ')'
	}
	return fields[19]
}

// pidExited reports whether the process has exited but still holds its
// pid: a zombie not yet reaped by its parent (state Z) or one being
// torn down (X). Signal 0 still succeeds for such a process and its
// start time still matches, yet it holds no lock and runs no work.
func pidExited(pid int) bool {
	fields := procStat(pid)
	return len(fields) > 0 && (fields[0] == "Z" || fields[0] == "X")
}
