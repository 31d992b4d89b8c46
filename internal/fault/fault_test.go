package fault

import (
	"errors"
	"testing"
	"time"
)

func TestIdleIsFree(t *testing.T) {
	Reset()
	if Active() {
		t.Fatal("registry armed after Reset")
	}
	if err := Hit(EngineAnalyze); err != nil {
		t.Fatalf("idle Hit returned %v", err)
	}
	if Hits(EngineAnalyze) != 0 {
		t.Fatal("idle registry counted hits")
	}
}

func TestErrorWindowIsDeterministic(t *testing.T) {
	defer Reset()
	injected := errors.New("boom")
	Activate(ExecReduceStep, Injection{Kind: KindError, Err: injected, After: 2, Count: 3})
	var got []bool
	for i := 0; i < 8; i++ {
		got = append(got, Hit(ExecReduceStep) != nil)
	}
	want := []bool{false, false, true, true, true, false, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hit %d: fired=%v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
	if Hits(ExecReduceStep) != 8 {
		t.Fatalf("Hits = %d, want 8", Hits(ExecReduceStep))
	}
}

func TestUnlimitedCountFiresForever(t *testing.T) {
	defer Reset()
	Activate(EngineIntern, Injection{Kind: KindError, Err: errors.New("x"), After: 1})
	if Hit(EngineIntern) != nil {
		t.Fatal("hit 0 fired despite After=1")
	}
	for i := 0; i < 100; i++ {
		if Hit(EngineIntern) == nil {
			t.Fatalf("hit %d did not fire with unlimited Count", i+1)
		}
	}
}

func TestPanicInjection(t *testing.T) {
	defer Reset()
	Activate(ServerHandle, Injection{Kind: KindPanic, Panic: "chaos"})
	defer func() {
		if recover() == nil {
			t.Error("injected panic did not fire")
		}
	}()
	Hit(ServerHandle)
}

func TestDelayInjection(t *testing.T) {
	defer Reset()
	Activate(DynamicSettle, Injection{Kind: KindDelay, Delay: 30 * time.Millisecond, Count: 1})
	start := time.Now()
	if err := Hit(DynamicSettle); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("delay injection slept %v, want >= 30ms", d)
	}
	// The window is spent: the next hit is instant.
	start = time.Now()
	Hit(DynamicSettle)
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Fatalf("second hit slept %v after Count=1 window", d)
	}
}

func TestStarveAndDeactivate(t *testing.T) {
	defer Reset()
	Activate(ServerHandle, Injection{Kind: KindError, Err: errors.New("x")})
	if Hit(ServerHandle) == nil {
		t.Fatal("error plan did not fire")
	}
	Deactivate(ServerHandle)
	if Hit(ServerHandle) != nil {
		t.Fatal("error fired after Deactivate")
	}
	if Active() {
		t.Fatal("registry still armed after sole site deactivated")
	}
}
