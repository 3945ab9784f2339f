package fleet

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync"

	"repro/internal/parser"
	"repro/internal/qos"
	"repro/internal/service"
	"repro/internal/wire"
)

// Server speaks the worker side of the fleet protocol: it accepts
// connections, decodes Register/Submit frames, dispatches them to a
// local service.Service, and answers with Registered/Progress/Result/
// Error frames. One goroutine serves each connection, and a
// connection's requests run strictly sequentially — fan-out across a
// worker's cores happens through the service's scheduler (and the
// per-job Workers knob), fan-out across workers through the
// coordinator's connections.
type Server struct {
	svc *service.Service

	mu     sync.Mutex
	lis    net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps a service. The caller keeps ownership of the service
// (Close does not close it): cmd/chased shares one service between the
// fleet listener and the HTTP health surface.
func NewServer(svc *service.Service) *Server {
	return &Server{svc: svc, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on lis until Close, blocking. It returns
// nil after Close; any other listener failure is returned as-is.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return nil
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Close stops accepting, severs live connections, and waits for their
// handlers to exit. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	if s.lis != nil {
		s.lis.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// handle serves one connection's request sequence.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	r := bufio.NewReader(conn)
	for {
		kind, body, err := readFrame(r)
		if err != nil {
			// io.EOF is the peer closing between requests; anything else
			// (torn frame, hostile bytes) means the stream framing cannot
			// be trusted, so the connection dies rather than guess at a
			// resync point.
			return
		}
		switch kind {
		case kindRegister:
			err = s.serveRegister(conn, body)
		case kindSubmit:
			err = s.serveSubmit(conn, body)
		default:
			// An unknown or out-of-role kind is answered typed, then the
			// connection closes: the peer is confused, and request/answer
			// pairing is no longer trustworthy.
			writeError(conn, service.KindBadRequest, errors.New("fleet: unknown message kind"))
			return
		}
		if err != nil {
			return
		}
	}
}

// serveRegister parses the shipped clauses, registers them, stores any
// piggybacked learned bounds under the computed fingerprint, and acks
// with that fingerprint. Bounds are decoded before registration so a
// corrupt blob rejects the whole Register rather than half-applying it.
func (s *Server) serveRegister(conn net.Conn, body []byte) error {
	m, err := decodeRegister(body)
	if err != nil {
		return writeError(conn, service.KindBadRequest, err)
	}
	bounds, err := qos.DecodeBounds(m.Bounds)
	if err != nil {
		return writeError(conn, service.KindBadRequest, err)
	}
	sigma, err := parser.ParseRules(m.Rules)
	if err != nil {
		return writeError(conn, service.KindBadRequest, err)
	}
	h, err := s.svc.RegisterOntology(sigma)
	if err != nil {
		return writeServiceError(conn, err)
	}
	s.svc.StoreBounds(h.Fingerprint, bounds)
	return writeFrame(conn, kindRegistered, encodeRegistered(registeredMsg{Fingerprint: h.Fingerprint}))
}

// serveSubmit runs one job to completion, streaming Progress frames
// when asked, and answers with exactly one Result or Error frame.
func (s *Server) serveSubmit(conn net.Conn, body []byte) error {
	m, err := decodeSubmit(body)
	if err != nil {
		return writeError(conn, service.KindBadRequest, err)
	}
	req := service.ChaseRequest{
		Meta:             m.Meta,
		Name:             m.Name,
		Variant:          m.Variant,
		TrackForest:      m.TrackForest,
		RecordDerivation: m.RecordDerivation,
		NoSemiNaive:      m.NoSemiNaive,
		Workers:          m.Workers,
	}
	req.SetBudget(m.Budget)
	tk, err := s.svc.SubmitByFingerprint(context.Background(), m.Fingerprint,
		service.Payload{Snapshot: m.Snapshot, Deltas: m.Deltas}, req)
	if err != nil {
		return writeServiceError(conn, err)
	}
	if m.Progress != nil {
		// The ticket's latest-wins stream closes just before the result
		// is delivered, so this drains without racing Wait.
		for st := range tk.Progress() {
			if err := writeFrame(conn, kindProgress, encodeProgress(st)); err != nil {
				tk.Cancel()
				tk.Wait()
				return err
			}
		}
	}
	res := tk.Wait()
	if res.Err != nil {
		return writeServiceError(conn, res.Err)
	}
	out := resultMsg{
		Terminated: res.Chase.Terminated,
		Stats:      res.Chase.Stats,
		Source:     res.BudgetSource,
		Snapshot:   wire.EncodeSnapshot(res.Chase.Instance),
		Derivation: RenderDerivation(res.Chase.Derivation),
	}
	return writeFrame(conn, kindResult, encodeResult(out))
}

// writeServiceError answers with the taxonomy kind of a service error
// (everything the service surface returns is a *service.Error; anything
// else is internal).
func writeServiceError(w io.Writer, err error) error {
	var se *service.Error
	if errors.As(err, &se) {
		return writeError(w, se.Kind, err)
	}
	return writeError(w, service.KindInternal, err)
}

// writeError emits one typed Error frame.
func writeError(w io.Writer, kind service.ErrorKind, err error) error {
	return writeFrame(w, kindError, encodeError(errorMsg{Code: kind.String(), Message: err.Error()}))
}
