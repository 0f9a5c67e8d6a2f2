package server

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// BinaryServer serves the internal/wire binary protocol on a raw TCP
// listener, dispatching into the same Server (and therefore the same
// filter and metrics registry) that answers HTTP. One goroutine per
// connection answers its frames in order; each connection's decoder
// parses frames in place in its read buffer, so the steady-state
// request path allocates nothing.
type BinaryServer struct {
	s *Server

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool
	wg       sync.WaitGroup
}

// NewBinaryServer wraps s. Call Serve with a listener to start
// answering, and Shutdown to drain.
func NewBinaryServer(s *Server) *BinaryServer {
	return &BinaryServer{s: s, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on ln until Shutdown closes it. Like
// http.Server.Serve it blocks; a nil return means a clean shutdown.
func (b *BinaryServer) Serve(ln net.Listener) error {
	b.mu.Lock()
	if b.draining {
		b.mu.Unlock()
		ln.Close()
		return errors.New("server: binary listener is shut down")
	}
	b.ln = ln
	b.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if b.drainingNow() {
				return nil
			}
			return err
		}
		b.mu.Lock()
		if b.draining {
			b.mu.Unlock()
			conn.Close()
			return nil
		}
		b.conns[conn] = struct{}{}
		b.wg.Add(1)
		b.mu.Unlock()
		go b.handle(conn)
	}
}

// Shutdown stops accepting, lets every in-flight request finish and its
// response flush, then closes the connections. Connections idle between
// frames are closed immediately; ones mid-request get until ctx expires
// before they are cut off.
func (b *BinaryServer) Shutdown(ctx context.Context) error {
	b.mu.Lock()
	b.draining = true
	if b.ln != nil {
		b.ln.Close()
	}
	// Waking every blocked read with an immediate deadline would also
	// kill requests whose bytes are still arriving; give them a short
	// grace (within the drain budget) instead. Handlers that finish a
	// request re-check draining and exit without waiting for it.
	grace := time.Now().Add(1 * time.Second)
	if d, ok := ctx.Deadline(); ok && d.Before(grace) {
		grace = d
	}
	for conn := range b.conns {
		conn.SetReadDeadline(grace)
	}
	b.mu.Unlock()

	done := make(chan struct{})
	go func() {
		b.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		b.mu.Lock()
		for conn := range b.conns {
			conn.Close()
		}
		b.mu.Unlock()
		b.wg.Wait()
		return ctx.Err()
	}
}

// release drops conn from the tracked set.
func (b *BinaryServer) release(conn net.Conn) {
	b.mu.Lock()
	delete(b.conns, conn)
	b.mu.Unlock()
	conn.Close()
	b.wg.Done()
}

// drainingNow reports whether Shutdown has begun.
func (b *BinaryServer) drainingNow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.draining
}

// handle runs one connection's request loop.
func (b *BinaryServer) handle(conn net.Conn) {
	defer b.release(conn)
	b.s.binConns.Add(1)
	defer b.s.binConns.Add(-1)

	dec := wire.NewDecoder(conn)
	bw := bufio.NewWriterSize(conn, 1<<15)
	if err := dec.ReadHandshake(); err != nil {
		if !errors.Is(err, io.EOF) {
			b.s.mErrors.Inc()
		}
		return
	}

	out := make([]byte, 0, 64)
	// results is this connection's batch result buffer, regrown to the
	// largest batch seen and reused across requests so a steady stream
	// of OpContainsBatch frames allocates nothing.
	var results []bool
	var req wire.Request
	for {
		err := dec.Next(&req)
		if errors.Is(err, io.EOF) {
			return // clean close between frames
		}
		if err == nil {
			out, err = b.answer(out, &req, &results)
		} else if b.drainingNow() {
			return // drain deadline fired, not a client fault
		}
		if err != nil {
			// A decode failure leaves frame boundaries untrusted, and an
			// error frame closes the connection by protocol: send it
			// (best effort) and drop the connection. A follower's refusal
			// names its primary, the best redirect this wire has.
			b.s.mErrors.Inc()
			out = wire.AppendErrorResp(out[:0], req.Op, req.ID, err.Error())
			conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
			bw.Write(out)
			bw.Flush()
			return
		}
		if _, err := bw.Write(out); err != nil {
			return
		}
		// Flush only when no further request is already buffered, so a
		// pipelining client gets its responses in one segment. Draining is
		// checked at the same boundary: requests already received are
		// answered before the connection closes.
		if dec.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
			if b.drainingNow() {
				return
			}
		}
	}
}

// answer runs req through the request core and encodes the response
// into out[:0]. results is the connection's batch result buffer. A
// refused request returns its error instead.
func (b *BinaryServer) answer(out []byte, req *wire.Request, results *[]bool) ([]byte, error) {
	s, start := b.s, time.Now()
	switch req.Op {
	case wire.OpContains:
		out = wire.AppendContainsResp(out[:0], req.ID, s.contains(req.Key, s.mBinContains))
		s.hBinContains.ObserveDuration(time.Since(start))
	case wire.OpContainsBatch:
		*results = s.containsBatch(*results, req.Keys, s.mBinBatch)
		out = wire.AppendBatchResp(out[:0], req.ID, *results)
		s.hBinBatch.ObserveDuration(time.Since(start))
	case wire.OpAdd:
		if err := s.add(req.Key, s.mBinAdd); err != nil {
			return out, err
		}
		out = wire.AppendOKResp(out[:0], wire.OpAdd, req.ID)
	case wire.OpPing:
		out = wire.AppendOKResp(out[:0], wire.OpPing, req.ID)
		s.mBinPing.Inc()
	}
	return out, nil
}
