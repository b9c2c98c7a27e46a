package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestFrontDoorDropsTrickledHeader: a client that keeps a connection busy by
// sending its request header a byte at a time is disconnected once the
// header deadline passes, while a response that takes longer than that
// deadline to produce (the /result?wait=1 long poll) is left alone.
func TestFrontDoorDropsTrickledHeader(t *testing.T) {
	const headerTimeout = 200 * time.Millisecond
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(rw http.ResponseWriter, _ *http.Request) {
		time.Sleep(3 * headerTimeout)
		_, _ = io.WriteString(rw, "done")
	})
	srv := newFrontDoor("", mux, headerTimeout)
	if srv.IdleTimeout <= 0 || srv.MaxHeaderBytes <= 0 {
		t.Fatalf("front door without idle (%v) or header-size (%d) limits", srv.IdleTimeout, srv.MaxHeaderBytes)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("front door WriteTimeout %v would cut long polls", srv.WriteTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		_ = srv.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v", err)
		}
	})

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /slow HTTP/1.1\r\nHost: disard\r\nX-Trickle: "); err != nil {
		t.Fatal(err)
	}
	// Keep trickling well past the deadline; the server must hang up on us
	// rather than wait for the blank line.
	dropped := make(chan error, 1)
	go func() {
		_ = conn.SetReadDeadline(time.Now().Add(20 * headerTimeout))
		_, err := conn.Read(make([]byte, 1))
		dropped <- err
	}()
	tick := time.NewTicker(headerTimeout / 8)
	defer tick.Stop()
	for waiting := true; waiting; {
		select {
		case err := <-dropped:
			if !errors.Is(err, io.EOF) && !isConnReset(err) {
				t.Fatalf("trickling client was not disconnected: read returned %v", err)
			}
			waiting = false
		case <-tick.C:
			_, _ = io.WriteString(conn, "x") // a write error means we were dropped; the read reports it
		}
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
	if err != nil {
		t.Fatalf("a response slower than the header deadline was cut: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(body) != "done" {
		t.Fatalf("slow response body %q, err %v", body, err)
	}
}

// isConnReset reports a read that failed because the peer closed the
// connection while our trickled bytes were still unread.
func isConnReset(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && !op.Timeout()
}
