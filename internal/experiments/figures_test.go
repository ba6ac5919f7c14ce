package experiments

import (
	"strings"
	"testing"
)

func TestFigure1(t *testing.T) {
	fig, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if !fig.AllClaimsHold() {
		t.Fatalf("claims failed:\n%s", fig)
	}
	if len(fig.Diags) == 0 || len(fig.Claims) != 3 {
		t.Fatalf("figure shape: %d diagrams, %d claims", len(fig.Diags), len(fig.Claims))
	}
	out := fig.String()
	if !strings.Contains(out, "S(f=0)") || !strings.Contains(out, "S(f=2)") {
		t.Fatalf("render missing fusion rows:\n%s", out)
	}
}

func TestFigure2(t *testing.T) {
	fig, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if !fig.AllClaimsHold() {
		t.Fatalf("claims failed:\n%s", fig)
	}
}

func TestFigure3(t *testing.T) {
	fig, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if !fig.AllClaimsHold() {
		t.Fatalf("claims failed:\n%s", fig)
	}
	if len(fig.Diags) != 2 {
		t.Fatalf("want two case diagrams, got %d", len(fig.Diags))
	}
}

func TestFigure4(t *testing.T) {
	fig, err := Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if !fig.AllClaimsHold() {
		t.Fatalf("claims failed:\n%s", fig)
	}
}

func TestFigure5(t *testing.T) {
	fig, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if !fig.AllClaimsHold() {
		t.Fatalf("claims failed:\n%s", fig)
	}
}

func TestAllFigures(t *testing.T) {
	figs, err := FiguresParallel(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 5 {
		t.Fatalf("got %d figures", len(figs))
	}
	for _, f := range figs {
		if f.ID == "" || f.Title == "" {
			t.Fatalf("figure missing metadata: %+v", f)
		}
	}
}

func TestFigureStringMarksFailures(t *testing.T) {
	f := Figure{ID: "X", Title: "t", Claims: []Claim{{Desc: "bad", OK: false}}}
	if !strings.Contains(f.String(), "FAILED") {
		t.Fatal("failed claims must render as FAILED")
	}
	if f.AllClaimsHold() {
		t.Fatal("AllClaimsHold must be false")
	}
}
