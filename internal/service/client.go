package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
)

// Sentinel errors for the interesting response classes; match with
// errors.Is against the error returned by Client methods.
var (
	// ErrOverloaded is 429: the daemon's admission queue was full.
	ErrOverloaded = errors.New("service: overloaded")
	// ErrDeadlineExceeded is 504: the request's deadline passed server-side.
	ErrDeadlineExceeded = errors.New("service: deadline exceeded")
	// ErrShuttingDown is 503: the daemon is draining.
	ErrShuttingDown = errors.New("service: shutting down")
	// ErrConflict is 409: a region conflicts with already-uploaded contents.
	ErrConflict = errors.New("service: region conflict")
)

// APIError is any non-2xx response, carrying the HTTP status, the failing
// pipeline stage (when the server identified one), and the server message.
// It matches the sentinel errors above under errors.Is.
type APIError struct {
	StatusCode int
	Stage      string
	Message    string
	// Missing carries the 412 missing-chunk set for delta-form requests.
	Missing []string
}

// Error formats the status, optional stage, and message.
func (e *APIError) Error() string {
	if e.Stage != "" {
		return fmt.Sprintf("service: HTTP %d (%s stage): %s", e.StatusCode, e.Stage, e.Message)
	}
	return fmt.Sprintf("service: HTTP %d: %s", e.StatusCode, e.Message)
}

// Is maps status codes onto the package sentinels.
func (e *APIError) Is(target error) bool {
	switch target {
	case ErrOverloaded:
		return e.StatusCode == http.StatusTooManyRequests
	case ErrDeadlineExceeded:
		return e.StatusCode == http.StatusGatewayTimeout
	case ErrShuttingDown:
		return e.StatusCode == http.StatusServiceUnavailable
	case ErrConflict:
		return e.StatusCode == http.StatusConflict
	}
	return false
}

// Client is the typed dbrewd client used by cmd/dbrewd's smoke mode, the
// serve_* workloads of benchmark/, and the end-to-end tests.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:7411".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client

	// deltaMu guards delta/known: delta snapshots replace each region's
	// bytes with its content-defined chunk list, omitting payloads the
	// server acknowledged in an earlier response.
	deltaMu sync.Mutex
	delta   bool
	known   map[string]struct{}
}

// EnableDeltaSnapshots switches this client to chunked delta uploads:
// regions ship as chunk-hash lists, payloads included only for chunks the
// server has not yet acknowledged. A server that lost chunks (restart,
// store eviction) answers 412 with the missing set; the client retries once
// with those payloads, and falls back to a plain full snapshot if the delta
// transport still fails — delta mode can never lose a request.
func (c *Client) EnableDeltaSnapshots() {
	c.deltaMu.Lock()
	defer c.deltaMu.Unlock()
	c.delta = true
	if c.known == nil {
		c.known = make(map[string]struct{})
	}
}

// deltaRequest returns a copy of req with every region in delta form, plus
// the full ordered hash list for post-success bookkeeping. Chunks in force
// (the server's reported missing set) or never acknowledged carry payloads.
func (c *Client) deltaRequest(req *Request, force map[string]bool) (*Request, []string) {
	c.deltaMu.Lock()
	defer c.deltaMu.Unlock()
	dreq := *req
	dreq.Regions = make([]Region, len(req.Regions))
	var hashes []string
	for i, rg := range req.Regions {
		chunks := splitChunks(rg.Data)
		wire := make([]Chunk, len(chunks))
		for j, data := range chunks {
			h := chunkHash(data)
			hashes = append(hashes, h)
			wire[j] = Chunk{Hash: h}
			_, acked := c.known[h]
			if force[h] || !acked {
				wire[j].Data = data
			}
		}
		dreq.Regions[i] = Region{Addr: rg.Addr, Chunks: wire}
	}
	return &dreq, hashes
}

func (c *Client) markKnown(hashes []string) {
	c.deltaMu.Lock()
	defer c.deltaMu.Unlock()
	for _, h := range hashes {
		c.known[h] = struct{}{}
	}
}

func (c *Client) deltaEnabled() bool {
	c.deltaMu.Lock()
	defer c.deltaMu.Unlock()
	return c.delta
}

// NewClient returns a client for the daemon at baseURL.
func NewClient(baseURL string) *Client { return &Client{BaseURL: baseURL} }

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// Specialize posts one specialization request and decodes the result.
// Non-2xx responses come back as *APIError.
func (c *Client) Specialize(ctx context.Context, req *Request) (*Response, error) {
	return c.specialize(ctx, req, "/specialize")
}

// SpecializeTraced is Specialize with ?trace=1: the daemon captures a
// per-request pipeline trace and returns it in Response.Trace.
func (c *Client) SpecializeTraced(ctx context.Context, req *Request) (*Response, error) {
	return c.specialize(ctx, req, "/specialize?trace=1")
}

func (c *Client) specialize(ctx context.Context, req *Request, path string) (*Response, error) {
	if !c.deltaEnabled() {
		return c.post(ctx, req, path)
	}
	dreq, hashes := c.deltaRequest(req, nil)
	resp, err := c.post(ctx, dreq, path)
	var apiErr *APIError
	if err != nil && errors.As(err, &apiErr) &&
		apiErr.StatusCode == http.StatusPreconditionFailed && len(apiErr.Missing) > 0 {
		force := make(map[string]bool, len(apiErr.Missing))
		for _, h := range apiErr.Missing {
			force[h] = true
		}
		dreq, hashes = c.deltaRequest(req, force)
		resp, err = c.post(ctx, dreq, path)
	}
	if err != nil {
		if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusPreconditionFailed {
			// The handshake failed twice (a store thrashing under eviction
			// pressure); the plain snapshot always works.
			return c.post(ctx, req, path)
		}
		return nil, err
	}
	c.markKnown(hashes)
	return resp, nil
}

func (c *Client) post(ctx context.Context, req *Request, path string) (*Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("service: encoding request: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hres, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		return nil, decodeError(hres)
	}
	var resp Response
	if err := json.NewDecoder(hres.Body).Decode(&resp); err != nil {
		return nil, fmt.Errorf("service: decoding response: %w", err)
	}
	return &resp, nil
}

// Health checks /healthz; nil means the daemon is accepting requests.
func (c *Client) Health(ctx context.Context) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return err
	}
	hres, err := c.httpClient().Do(hreq)
	if err != nil {
		return err
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		return decodeError(hres)
	}
	return nil
}

// Metrics fetches and decodes /metrics.
func (c *Client) Metrics(ctx context.Context) (*Metrics, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	// The default /metrics representation is Prometheus text; ask for the
	// structured JSON snapshot explicitly.
	hreq.Header.Set("Accept", "application/json")
	hres, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		return nil, decodeError(hres)
	}
	var m Metrics
	if err := json.NewDecoder(hres.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("service: decoding metrics: %w", err)
	}
	return &m, nil
}

func decodeError(hres *http.Response) error {
	apiErr := &APIError{StatusCode: hres.StatusCode}
	raw, _ := io.ReadAll(io.LimitReader(hres.Body, 1<<16))
	var body ErrorBody
	if json.Unmarshal(raw, &body) == nil && body.Error != "" {
		apiErr.Stage = body.Stage
		apiErr.Message = body.Error
		apiErr.Missing = body.Missing
	} else {
		apiErr.Message = string(bytes.TrimSpace(raw))
	}
	return apiErr
}
