// Package locksafe is the fixture for the locksafe analyzer: mutexes held
// across blocking operations (conn I/O, channel ops, Wait — directly or
// through a same-package call) must be flagged; released-before-blocking
// sections, goroutine hand-offs, and //simvet:lockio-reviewed serialization
// locks stay silent.
package locksafe

import (
	"sync"
	"time"
)

// conn carries the net.Conn method-set shape the analyzer detects
// structurally, so the fixture needs no net import.
type conn struct{}

func (conn) Read(p []byte) (int, error)    { return 0, nil }
func (conn) Write(p []byte) (int, error)   { return len(p), nil }
func (conn) Close() error                  { return nil }
func (conn) LocalAddr() string             { return "" }
func (conn) RemoteAddr() string            { return "" }
func (conn) SetDeadline(t time.Time) error { return nil }

type server struct {
	mu sync.Mutex
	c  conn
	ch chan int
	wg sync.WaitGroup
}

func (s *server) writeHeld(p []byte) {
	s.mu.Lock()
	_, _ = s.c.Write(p) // want `mutex s\.mu \(locked at .*\) is held across net\.Conn Write`
	s.mu.Unlock()
}

func (s *server) deferredHold(p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.c.Write(p) // want `is held across net\.Conn Write`
	return err
}

func (s *server) sendHeld(v int) {
	s.mu.Lock()
	s.ch <- v // want `is held across a channel send`
	s.mu.Unlock()
}

func (s *server) waitHeld() {
	s.mu.Lock()
	s.wg.Wait() // want `is held across sync\.WaitGroup\.Wait`
	s.mu.Unlock()
}

// flush blocks on the transport; callers holding a lock across it are the
// cross-function case the summaries exist for.
func (s *server) flush(p []byte) error {
	_, err := s.c.Write(p)
	return err
}

func (s *server) flushHeld(p []byte) {
	s.mu.Lock()
	_ = s.flush(p) // want `is held across a call to flush \(which blocks on net\.Conn Write\)`
	s.mu.Unlock()
}

func (s *server) unlockFirst(v int) {
	s.mu.Lock()
	s.mu.Unlock()
	s.ch <- v // lock already released: silent
}

func (s *server) branchRelease(v int, fast bool) {
	s.mu.Lock()
	if fast {
		s.mu.Unlock()
		s.ch <- v // released on this branch: silent
		return
	}
	s.mu.Unlock()
}

func (s *server) spawnWhileHeld(v int) {
	s.mu.Lock()
	go func() { s.ch <- v }() // runs on another goroutine: silent
	s.mu.Unlock()
}

func (s *server) serialized(p []byte) {
	s.mu.Lock()
	//simvet:lockio — this lock exists precisely to serialize frames onto the conn
	_, _ = s.c.Write(p)
	s.mu.Unlock()
}
