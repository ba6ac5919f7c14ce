//go:build !amd64 || purego

package interval

// Non-amd64 (and purego) builds carry no assembly kernel: every batch
// runs through the generic merge kernel.

// haveAVX2 is false without the amd64 assembly build.
const haveAVX2 = false

// defaultKernel selects the startup kernel: generic, the proven
// branch-lean merge, everywhere the vector kernel cannot run.
func defaultKernel() kernelKind { return kernelGeneric }

// fuseLanesAVX2 is never reachable here (kernelAVX2 is not available),
// but the dispatch in fuseBatch still links against it.
func (s *Sweeper) fuseLanesAVX2(b *Batch, need int, out []Interval, widths []float64, ok []bool) int {
	panic("interval: avx2 kernel unavailable in this build")
}
