package interval

// This file is the batch kernel's process-wide dispatch. Two kernels
// exist: "generic" (batch.go's fuseMerged, the serial two-pointer merge
// per candidate lane, any GOARCH and any batch shape) and "avx2"
// (kernel_amd64.go/.s, four k=2 lanes per branch-free pass over the
// base endpoints). Under avx2, FuseBatch/ScoreBatch hand k=2 lanes to
// the assembly in groups of four and run k=0, k>=3 and the n mod 4
// tail through fuseMerged. Under both, k=1 lanes take the segment
// kernel (batch.go's fuseLanesK1: a closed form over per-base tables,
// no per-lane merge, and AccumulateK1, its in-place accumulating
// form), which is not a selectable kernel. The default is
// chosen at startup by CPU feature detection — AVX2 on capable amd64,
// generic everywhere else — and can be forced with the
// SENSORFUSION_KERNEL environment variable or SetKernel (tests, and
// `make bench-kernels`, force each mode for apples-to-apples runs). Every kernel selects the
// same endpoint values with no arithmetic on them, so results are
// bit-identical; the differential and fuzz tests in internal/fusion pin
// that equivalence for every kernel.

import (
	"fmt"
	"os"
	"strings"
)

// kernelKind identifies one batch-kernel implementation.
type kernelKind uint8

const (
	kernelGeneric kernelKind = iota // fuseMerged: serial two-pointer merge per lane
	kernelAVX2                      // amd64 assembly, 4 lanes per pass (k == 2)
)

var kernelNameTab = [...]string{"generic", "avx2"}

// activeKernel is the process-wide batch-kernel selection. It is read
// on every FuseBatch/ScoreBatch call and written only by SetKernel (and
// the startup default); like the Sweeper itself it is not synchronized,
// so tests that force kernels must not run concurrent batch calls.
var activeKernel = defaultKernel()

func init() {
	if name := os.Getenv("SENSORFUSION_KERNEL"); name != "" {
		// An unknown or unavailable name keeps the detected default, so
		// e.g. SENSORFUSION_KERNEL=avx2 is harmless on arm64 and
		// `make bench-kernels` can sweep every mode everywhere.
		_ = SetKernel(name)
	}
}

// kernelAvailable reports whether kind can run in this build on this
// CPU. generic is portable; avx2 needs the amd64 assembly build (no
// purego tag) and runtime AVX2+OSXSAVE support.
func kernelAvailable(kind kernelKind) bool {
	switch kind {
	case kernelGeneric:
		return true
	case kernelAVX2:
		return haveAVX2
	}
	return false
}

// KernelNames returns the batch-kernel implementations available in
// this build on this CPU, in dispatch-preference order.
func KernelNames() []string {
	names := make([]string, 0, len(kernelNameTab))
	for k, n := range kernelNameTab {
		if kernelAvailable(kernelKind(k)) {
			names = append(names, n)
		}
	}
	return names
}

// KernelName returns the name of the currently selected batch kernel.
func KernelName() string { return kernelNameTab[activeKernel] }

// SetKernel selects the batch kernel by name ("generic" or "avx2"),
// overriding the CPU-detected default. It fails when the name
// is unknown or the kernel is unavailable on this CPU/build; the
// selection is process-wide and not synchronized with running batch
// calls. The SENSORFUSION_KERNEL environment variable applies the same
// selection at startup.
func SetKernel(name string) error {
	for k, n := range kernelNameTab {
		if n != name {
			continue
		}
		if !kernelAvailable(kernelKind(k)) {
			return fmt.Errorf("interval: kernel %q not available on this CPU/build", name)
		}
		activeKernel = kernelKind(k)
		return nil
	}
	return fmt.Errorf("interval: unknown kernel %q (available: %s)", name, strings.Join(KernelNames(), ", "))
}
