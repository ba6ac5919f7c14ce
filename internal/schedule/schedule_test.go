package schedule

import (
	"math/rand"
	"testing"
)

func isPerm(order []int, n int) bool {
	if len(order) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || v >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

func TestAscending(t *testing.T) {
	widths := []float64{2, 0.2, 1, 0.2}
	s, err := NewAscending(widths)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Order()
	// Ties (the two 0.2s) break by index: 1 then 3.
	want := []int{1, 3, 2, 0}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("Ascending order = %v, want %v", got, want)
		}
	}
	if s.Name() != "Ascending" {
		t.Fatalf("Name = %q", s.Name())
	}
	// The returned order is a scheduler-owned reused buffer (the
	// simulator calls Order once per round of multi-million-round
	// expectations): successive calls return the same permutation
	// without allocating.
	if allocs := testing.AllocsPerRun(100, func() { s.Order() }); allocs != 0 {
		t.Fatalf("Order allocates %v per round, want 0", allocs)
	}
}

func TestDescending(t *testing.T) {
	widths := []float64{2, 0.2, 1, 0.2}
	s, err := NewDescending(widths)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Order()
	want := []int{0, 2, 1, 3}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("Descending order = %v, want %v", got, want)
		}
	}
}

func TestAscendingDescendingAreReverses(t *testing.T) {
	// With all-distinct widths the two schedules are exact reverses.
	widths := []float64{5, 11, 17, 8}
	a, _ := NewAscending(widths)
	d, _ := NewDescending(widths)
	ao, do := a.Order(), d.Order()
	for k := range ao {
		if ao[k] != do[len(do)-1-k] {
			t.Fatalf("asc %v is not the reverse of desc %v", ao, do)
		}
	}
}

func TestEmptyWidthsRejected(t *testing.T) {
	if _, err := NewAscending(nil); err == nil {
		t.Fatal("empty widths must fail")
	}
	if _, err := NewDescending(nil); err == nil {
		t.Fatal("empty widths must fail")
	}
}

func TestRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s, err := NewRandom(5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "Random" {
		t.Fatalf("Name = %q", s.Name())
	}
	differs := false
	// Order returns a reused buffer, so snapshot each round's order
	// before asking for the next (the documented don't-retain contract).
	prev := append([]int(nil), s.Order()...)
	if !isPerm(prev, 5) {
		t.Fatalf("not a permutation: %v", prev)
	}
	for round := 0; round < 20; round++ {
		cur := append([]int(nil), s.Order()...)
		if !isPerm(cur, 5) {
			t.Fatalf("not a permutation: %v", cur)
		}
		for k := range cur {
			if cur[k] != prev[k] {
				differs = true
			}
		}
		prev = cur
	}
	if !differs {
		t.Fatal("Random schedule never changed in 20 rounds")
	}
	if _, err := NewRandom(0, rng); err == nil {
		t.Fatal("n=0 must fail")
	}
	if _, err := NewRandom(3, nil); err == nil {
		t.Fatal("nil rng must fail")
	}
}

func TestFixed(t *testing.T) {
	s, err := NewFixed([]int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	got := s.Order()
	if got[0] != 2 || got[1] != 0 || got[2] != 1 {
		t.Fatalf("Fixed order = %v", got)
	}
	if _, err := NewFixed([]int{0, 0, 1}); err == nil {
		t.Fatal("duplicate entries must fail")
	}
	if _, err := NewFixed([]int{0, 3, 1}); err == nil {
		t.Fatal("out-of-range entries must fail")
	}
	if _, err := NewFixed(nil); err == nil {
		t.Fatal("empty order must fail")
	}
}

func TestTrustedLast(t *testing.T) {
	widths := []float64{1, 0.2, 2, 0.5}
	trusted := []bool{false, true, false, true}
	s, err := NewTrustedLast(widths, trusted)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Order()
	// Untrusted ascending: 0 (1), 2 (2); trusted ascending: 1 (0.2), 3 (0.5).
	want := []int{0, 2, 1, 3}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("TrustedLast order = %v, want %v", got, want)
		}
	}
	if _, err := NewTrustedLast(widths, trusted[:2]); err == nil {
		t.Fatal("length mismatch must fail")
	}
}

func TestForKind(t *testing.T) {
	widths := []float64{1, 2, 3}
	rng := rand.New(rand.NewSource(1))
	for _, k := range []Kind{Ascending, Descending, Random, TrustedLast} {
		s, err := ForKind(k, widths, make([]bool, 3), nil, rng)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if !isPerm(s.Order(), 3) {
			t.Fatalf("%v: not a permutation", k)
		}
	}
	if s, err := ForKind(Fixed, widths, nil, []int{1, 2, 0}, nil); err != nil || !isPerm(s.Order(), 3) {
		t.Fatalf("Fixed via ForKind: %v", err)
	}
	if _, err := ForKind(Kind(42), widths, nil, nil, rng); err == nil {
		t.Fatal("unknown kind must fail")
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		Ascending: "Ascending", Descending: "Descending", Random: "Random",
		Fixed: "Fixed", TrustedLast: "TrustedLast", Kind(9): "Kind(9)",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestSlotOf(t *testing.T) {
	order := []int{2, 0, 1}
	if got := SlotOf(order, 0); got != 1 {
		t.Fatalf("SlotOf(0) = %d", got)
	}
	if got := SlotOf(order, 5); got != -1 {
		t.Fatalf("SlotOf(missing) = %d", got)
	}
}

// SlotOf returns the slot index at which sensor idx transmits under the
// given order, or -1 if absent.
func SlotOf(order []int, idx int) int {
	for s, v := range order {
		if v == idx {
			return s
		}
	}
	return -1
}

// TestFixedOrder pins which schedulers replay one order every round:
// every kind but Random, and no Scheduler built outside the package,
// even one whose Order never changes.
func TestFixedOrder(t *testing.T) {
	widths := []float64{3, 1, 2}
	for _, k := range []Kind{Ascending, Descending, Random, Fixed, TrustedLast} {
		s, err := ForKind(k, widths, []bool{true, false, false}, []int{2, 0, 1}, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := FixedOrder(s), k != Random; got != want {
			t.Errorf("FixedOrder(%v) = %v, want %v", k, got, want)
		}
	}
	if FixedOrder(outsideScheduler{}) {
		t.Error("FixedOrder of a Scheduler from outside the package = true")
	}
}

type outsideScheduler struct{}

func (outsideScheduler) Order() []int { return []int{0, 1, 2} }
func (outsideScheduler) Name() string { return "outside" }
