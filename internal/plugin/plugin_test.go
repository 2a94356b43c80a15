package plugin

import (
	"errors"
	"testing"
)

func TestRegisterAndGet(t *testing.T) {
	r := NewRegistry()
	called := false
	if err := r.Register("persist", func(*Context, string) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	a, ok := r.Get("persist")
	if !ok {
		t.Fatal("Get failed")
	}
	if err := a(&Context{}, "ev"); err != nil || !called {
		t.Error("action not invoked")
	}
	if _, ok := r.Get("ghost"); ok {
		t.Error("unknown action should not resolve")
	}
}

func TestRegisterValidation(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("", func(*Context, string) error { return nil }); err == nil {
		t.Error("empty name must fail")
	}
	if err := r.Register("x", nil); err == nil {
		t.Error("nil action must fail")
	}
	if err := r.Register("a", func(*Context, string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("a", func(*Context, string) error { return nil }); err == nil {
		t.Error("duplicate must fail")
	}
}

func TestNilRegistry(t *testing.T) {
	var r *Registry
	if _, ok := r.Get("x"); ok {
		t.Error("nil registry Get should fail")
	}
}

func TestActionErrorPropagates(t *testing.T) {
	r := NewRegistry()
	boom := errors.New("boom")
	if err := r.Register("fail", func(*Context, string) error { return boom }); err != nil {
		t.Fatal(err)
	}
	a, _ := r.Get("fail")
	if err := a(&Context{}, "e"); !errors.Is(err, boom) {
		t.Error("error not propagated")
	}
}
