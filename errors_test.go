package dbrewllvm

import (
	"errors"
	"strings"
	"testing"
)

// TestStageErrorIdentity: every stage's error matches exactly its own
// sentinel under errors.Is, unwraps to its cause, and names the stage in
// the message — the contract the dbrewd service maps onto HTTP statuses.
func TestStageErrorIdentity(t *testing.T) {
	sentinels := map[Stage]error{
		StageRewrite:  ErrStageRewrite,
		StageLift:     ErrStageLift,
		StageOptimize: ErrStageOptimize,
		StageJIT:      ErrStageJIT,
	}
	names := map[Stage]string{
		StageRewrite: "rewrite", StageLift: "lift",
		StageOptimize: "optimize", StageJIT: "jit",
	}
	cause := errors.New("the underlying cause")
	for stage, sentinel := range sentinels {
		err := error(&StageError{Stage: stage, Err: cause})
		if !errors.Is(err, sentinel) {
			t.Errorf("%v: errors.Is against own sentinel is false", stage)
		}
		for other, otherSentinel := range sentinels {
			if other != stage && errors.Is(err, otherSentinel) {
				t.Errorf("%v: errors.Is matches %v's sentinel", stage, other)
			}
		}
		if !errors.Is(err, cause) {
			t.Errorf("%v: cause lost from the errors.Is chain", stage)
		}
		msg := err.Error()
		if !strings.Contains(msg, names[stage]+" stage") {
			t.Errorf("%v: message %q does not identify the stage", stage, msg)
		}
		if !strings.Contains(msg, cause.Error()) {
			t.Errorf("%v: message %q does not carry the cause", stage, msg)
		}
	}
}

// TestStrictRewriteSurfacesStage: in Strict mode a failing DBrew pass
// returns a *StageError for the rewrite stage instead of silently handing
// back the original function.
func TestStrictRewriteSurfacesStage(t *testing.T) {
	e := NewEngine()
	// 0x06 is invalid in 64-bit mode; the DBrew pass cannot decode it.
	fn := e.PlaceCode([]byte{0x06, 0xc3}, "garbage")

	r := NewRewriter(e, fn, Sig(Int))
	r.SetBackend(BackendLLVM)
	r.Strict = true
	if _, err := r.Rewrite(); err == nil {
		t.Fatal("strict Rewrite of undecodable code returned nil error")
	} else {
		if !errors.Is(err, ErrStageRewrite) {
			t.Fatalf("err = %v, want errors.Is(err, ErrStageRewrite)", err)
		}
		var se *StageError
		if !errors.As(err, &se) || se.Stage != StageRewrite {
			t.Fatalf("err = %#v, want *StageError{Stage: StageRewrite}", err)
		}
		if !strings.Contains(err.Error(), "rewrite stage") {
			t.Fatalf("message %q does not name the rewrite stage", err.Error())
		}
	}
}

// TestNonStrictKeepsFallback: without Strict the default DBrew contract is
// preserved — the original entry comes back runnable with Stats.Failed set.
func TestNonStrictKeepsFallback(t *testing.T) {
	e := NewEngine()
	fn := e.PlaceCode([]byte{0x06, 0xc3}, "garbage")

	r := NewRewriter(e, fn, Sig(Int))
	r.SetBackend(BackendLLVM)
	addr, err := r.Rewrite()
	if err != nil {
		t.Fatalf("non-strict Rewrite must not error: %v", err)
	}
	if addr != fn {
		t.Fatalf("fallback addr = %#x, want original %#x", addr, fn)
	}
	if !r.Stats.Failed {
		t.Fatal("Stats.Failed not set on fallback")
	}
}

// TestStrictDoesNotHitNonStrictFallback: the fallback policy is part of
// what a cached result means. A non-strict Rewrite caches the original
// entry for undecodable code; a later Strict Rewrite of the same function
// must still surface the rewrite-stage error instead of returning that
// cached fallback.
func TestStrictDoesNotHitNonStrictFallback(t *testing.T) {
	e := NewEngine()
	e.EnableCache(0)
	fn := e.PlaceCode([]byte{0x06, 0xc3}, "garbage")

	lax := NewRewriter(e, fn, Sig(Int))
	lax.SetBackend(BackendLLVM)
	if addr, err := lax.Rewrite(); err != nil || addr != fn || !lax.Stats.Failed {
		t.Fatalf("non-strict Rewrite = %#x, %v (Failed %v); want the original entry as fallback",
			addr, err, lax.Stats.Failed)
	}

	strict := NewRewriter(e, fn, Sig(Int))
	strict.SetBackend(BackendLLVM)
	strict.Strict = true
	addr, err := strict.Rewrite()
	if !errors.Is(err, ErrStageRewrite) {
		t.Fatalf("strict Rewrite after a cached fallback = %#x, %v (cache hit %v); want ErrStageRewrite",
			addr, err, strict.CacheHit)
	}
}
