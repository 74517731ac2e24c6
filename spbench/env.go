package main

import (
	"fmt"
	"net"

	"repro/internal/executor"
	"repro/internal/server"
	"repro/internal/sqlmini"
)

// env is one open database served on a loopback listener inside this
// process, with the benchmark's single client connection and an
// embedded session for the traced run's sqlmini boundary.
type env struct {
	opts executor.Options
	db   *executor.DB
	srv  *server.Server
	ln   net.Listener
	done chan error
	cli  *server.Client
	sess *sqlmini.Session
}

// openEnv opens (or recovers) the database described by opts and starts
// serving it.
func openEnv(opts executor.Options) (*env, error) {
	db, err := executor.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", opts.Dir, err)
	}
	e := &env{opts: opts, db: db}
	if err := e.serve(); err != nil {
		db.Close()
		return nil, err
	}
	return e, nil
}

func (e *env) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	e.ln = ln
	e.srv = server.New(e.db)
	e.done = make(chan error, 1)
	go func() { e.done <- e.srv.Serve(ln) }()
	cli, err := server.Dial(ln.Addr().String())
	if err != nil {
		e.stopServer()
		return fmt.Errorf("dial: %w", err)
	}
	e.cli = cli
	e.sess = sqlmini.NewSession(e.db)
	return nil
}

// stopServer ends the connection and the server and waits for Serve to
// return; the database stays open.
func (e *env) stopServer() error {
	if e.sess != nil {
		e.sess.Close()
		e.sess = nil
	}
	if e.cli != nil {
		e.cli.Close()
		e.cli = nil
	}
	e.srv.Shutdown()
	e.ln.Close()
	return <-e.done
}

// close shuts the server down and closes the database cleanly.
func (e *env) close() error {
	serr := e.stopServer()
	if err := e.db.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	return serr
}

// crash shuts the server down and crashes the database: nothing is
// written back, so the next open must recover from the log.
func (e *env) crash() error {
	serr := e.stopServer()
	if err := e.db.Crash(); err != nil {
		return fmt.Errorf("crash: %w", err)
	}
	return serr
}
