package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/serve"
)

// The served system under test is the shipped senn-serverd binary, built
// from the checkout by the harness and run as a child process on loopback
// with default flags, so its CPU time and memory are separable from the
// load generator's.

const (
	bootTimeout = 15 * time.Second
	stopGrace   = 5 * time.Second
)

// buildDaemon compiles cmd/senn-serverd from the repository at root into
// dir and returns the binary's path.
func buildDaemon(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "senn-serverd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/senn-serverd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build senn-serverd: %w\n%s", err, out)
	}
	return bin, nil
}

// storeSpec is the `-mkstore` invocation: uniform POIs, so the peer-solved
// share is set by geometry and not by where a seed lands relative to a
// cluster.
type storeSpec struct {
	pois   int
	width  float64
	fanout int
	seed   int64
}

func writeStore(ctx context.Context, bin, path string, s storeSpec) error {
	cmd := exec.CommandContext(ctx, bin, "-mkstore", path,
		"-pois", strconv.Itoa(s.pois), "-clusters", "0",
		"-width", strconv.FormatFloat(s.width, 'g', -1, 64),
		"-fanout", strconv.Itoa(s.fanout), "-seed", strconv.FormatInt(s.seed, 10))
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("mkstore: %w\n%s", err, out)
	}
	return nil
}

// daemon is one running senn-serverd child.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	output bytes.Buffer
	exited chan struct{} // closed once the child has been reaped
	client *http.Client
}

// startDaemon boots the daemon on a free loopback port and waits for
// /healthz; a boot that does not become healthy within bootTimeout fails the
// run and leaves no child behind.
func startDaemon(bin, store string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, err
	}
	d := &daemon{
		addr:   addr,
		exited: make(chan struct{}),
		client: &http.Client{Timeout: 5 * time.Second},
	}
	d.cmd = exec.Command(bin, "-store", store, "-addr", addr)
	d.cmd.Stdout = &d.output
	d.cmd.Stderr = &d.output
	// The child must not outlive a harness that is killed mid-run.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	started := make(chan error, 1)
	go func() {
		// Pdeathsig follows the thread that forked the child, so that thread
		// is pinned to this goroutine until the child has been reaped.
		runtime.LockOSThread()
		if err := d.cmd.Start(); err != nil {
			started <- err
			return
		}
		started <- nil
		_ = d.cmd.Wait() // exit status is irrelevant: the harness signals it
		close(d.exited)
	}()
	if err := <-started; err != nil {
		return nil, fmt.Errorf("start senn-serverd: %w", err)
	}
	deadline := time.Now().Add(bootTimeout)
	for {
		resp, err := d.client.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("senn-serverd exited during boot:\n%s", d.output.String())
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("senn-serverd not healthy after %v:\n%s", bootTimeout, d.output.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stats fetches /v1/stats.
func (d *daemon) stats() (serve.Stats, error) {
	var st serve.Stats
	resp, err := d.client.Get("http://" + d.addr + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// newSession registers a session and returns its token.
func (d *daemon) newSession() (string, error) {
	resp, err := d.client.Post("http://"+d.addr+"/v1/session", "application/json", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("session: status %d", resp.StatusCode)
	}
	var doc struct {
		Session string `json:"session"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return "", err
	}
	return doc.Session, nil
}

// dial opens a fresh session's WebSocket.
func (d *daemon) dial() (*serve.WSConn, error) {
	token, err := d.newSession()
	if err != nil {
		return nil, err
	}
	return serve.DialWS("ws://" + d.addr + "/v1/ws?session=" + token)
}

// stop signals the daemon and reaps it: SIGTERM, then SIGKILL after
// stopGrace. It returns once the child has exited.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine
	select {
	case <-d.exited:
	case <-time.After(stopGrace):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}
