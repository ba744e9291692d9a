package main

import (
	"errors"
	"net"
	"net/http"
	"os"
	"time"

	"busenc/internal/serve"
)

// daemon is one in-process busencd: a serve.Server registered on a
// mux behind a loopback listener, exactly what cmd/busencd mounts.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	addr   string // host:port
	served chan error
}

// startDaemon starts a daemon whose store lives in a fresh directory
// under dir. Queue workers run only when workers is set: a dist peer
// needs none, the /dist upgrade prices on its own connection.
func startDaemon(dir string, workers bool) (*daemon, error) {
	store, err := os.MkdirTemp(dir, "store-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{StoreDir: store})
	if err != nil {
		return nil, err
	}
	if workers {
		srv.Start()
	}
	mux := http.NewServeMux()
	srv.Register(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(0)
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: mux}, addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop closes the listener and every open connection, waits for the
// serve loop to return and drains the job queue.
func (d *daemon) stop() error {
	err := d.hs.Close()
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if !d.srv.Drain(10 * time.Second) {
		err = errors.Join(err, errors.New("perfbench: daemon queue did not drain"))
	}
	return err
}
