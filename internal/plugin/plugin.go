// Package plugin implements the user-extension mechanism of Damaris.
//
// Paper §III-C, "Behavior management and user-defined actions": "A plugin is
// a function embedded in the simulation, in a dynamic library or in a Python
// script, that the EPE will load and call in response to events sent by the
// application." Go cannot hot-load shared objects in this offline build, so
// plugins are Go functions registered by name; the configuration file's
// `action`/`using` attributes select them, preserving the paper's
// config-driven matching between events and reactions.
package plugin

import (
	"fmt"
	"sync"

	"damaris/internal/metadata"
)

// Context carries the dedicated core's state into an action invocation.
type Context struct {
	// Store is the metadata catalog holding the iteration's datasets.
	Store *metadata.Store
	// Iteration is the simulation step the triggering event belongs to.
	Iteration int64
	// Source is the client that sent the event (-1 for global events).
	Source int
	// ServerID identifies the dedicated core (its world rank).
	ServerID int
	// Node is the SMP node index the dedicated core serves.
	Node int
	// OutputDir is where persistency actions write files.
	OutputDir string
	// Values carries arbitrary key/value state shared between actions of
	// one dedicated core (e.g. accumulated compression ratios).
	Values map[string]any
}

// Value returns a context value, nil when absent or when the context has no
// value map.
func (c *Context) Value(key string) any {
	if c.Values == nil {
		return nil
	}
	return c.Values[key]
}

// SetValue stores a context value, allocating the map on first use.
func (c *Context) SetValue(key string, v any) {
	if c.Values == nil {
		c.Values = make(map[string]any)
	}
	c.Values[key] = v
}

// Action is a user-provided reaction to an event. Event is the configured
// event name; the action inspects the Context (typically the Store) and
// performs I/O, transformation or analysis.
type Action func(ctx *Context, event string) error

// Registry maps action names to implementations. A nil *Registry behaves as
// empty for lookups.
type Registry struct {
	mu      sync.RWMutex
	actions map[string]Action
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{actions: make(map[string]Action)}
}

// Register binds name to an action. Registering an existing name returns an
// error (plugins must be unambiguous).
func (r *Registry) Register(name string, a Action) error {
	if name == "" {
		return fmt.Errorf("plugin: empty action name")
	}
	if a == nil {
		return fmt.Errorf("plugin: nil action for %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.actions[name]; dup {
		return fmt.Errorf("plugin: action %q already registered", name)
	}
	r.actions[name] = a
	return nil
}

// MustRegister is Register but panics on error; for static initialization.
func (r *Registry) MustRegister(name string, a Action) {
	if err := r.Register(name, a); err != nil {
		panic(err)
	}
}

// Get looks an action up by name.
func (r *Registry) Get(name string) (Action, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.actions[name]
	return a, ok
}
