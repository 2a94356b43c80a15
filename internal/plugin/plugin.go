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

// Context carries the dedicated core's state into an action invocation. An
// action's products go into Store as entries of Iteration, so they travel
// with the iteration's data to wherever it is persisted.
type Context struct {
	// Store is the metadata catalog holding the iteration's datasets.
	Store *metadata.Store
	// Iteration is the simulation step the triggering event belongs to.
	Iteration int64
	// Source is the world rank the event is attributed to: the sending
	// client's for a local event, the dedicated core's for a global one.
	// Clients and dedicated cores are distinct ranks, so entries an action
	// keys by Source never collide with a client's writes.
	Source int
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
