//go:build unix && !linux

package coordinator

import "os/exec"

func setPdeathsig(*exec.Cmd) {}

// pidStartTime has no portable source off Linux; empty means "unknown"
// and lock staleness falls back to pid-only liveness.
func pidStartTime(int) string { return "" }

// pidExited cannot tell a zombie from a live process off Linux.
func pidExited(int) bool { return false }
