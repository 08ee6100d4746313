// Package client is the typed Go client for the gliderd HTTP API
// (internal/server): simulation cells, prediction queries, surrogate
// estimates, NDJSON batch streaming, catalog, health, and metrics, with
// server rejections surfaced as *APIError carrying the HTTP status and
// Retry-After hint.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"glider/internal/experiments"
	"glider/internal/ledger"
	"glider/internal/obs"
	"glider/internal/server"
)

// Client talks to one gliderd instance.
type Client struct {
	base string
	hc   *http.Client
}

// New builds a client for the given base URL (e.g. "http://127.0.0.1:8080").
// httpClient may be nil for http.DefaultClient.
func New(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return &Client{base: base, hc: httpClient}
}

// APIError is a non-2xx server response.
type APIError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Message is the server's error string.
	Message string
	// RetryAfter is the server's backoff hint (zero when absent) — set on
	// 429 (queue full) and 503 (draining).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("gliderd: %d: %s", e.StatusCode, e.Message)
}

// Temporary reports whether retrying later can succeed (backpressure or
// drain rejections and timeouts, as opposed to invalid requests).
func (e *APIError) Temporary() bool {
	switch e.StatusCode {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// SimResponse is one simulation result plus its envelope metadata.
type SimResponse struct {
	Hash   string
	Cached bool
	Result experiments.CellResult
	// Raw is the result exactly as the server marshaled it (the bytes the
	// differential suite compares).
	Raw json.RawMessage
}

// Sim runs one simulation cell.
func (c *Client) Sim(ctx context.Context, spec server.JobSpec) (SimResponse, error) {
	var out SimResponse
	env, err := c.postJob(ctx, "/v1/sim", spec)
	if err != nil {
		return out, err
	}
	out.Hash, out.Cached, out.Raw = env.Hash, env.Cached, env.Result
	if err := json.Unmarshal(env.Result, &out.Result); err != nil {
		return out, fmt.Errorf("gliderd: decoding sim result: %w", err)
	}
	return out, nil
}

// Do posts spec to the endpoint matching its Kind ("sim" → /v1/sim,
// "predict" → /v1/predict, "estimate" → /v1/estimate, defaulting to sim)
// and returns the raw envelope without decoding the result — the forwarding
// primitive the gateway's routing and retry paths are built on.
func (c *Client) Do(ctx context.Context, spec server.JobSpec) (server.Envelope, error) {
	path := "/v1/sim"
	switch spec.Kind {
	case server.KindPredict:
		path = "/v1/predict"
	case server.KindEstimate:
		path = "/v1/estimate"
	}
	return c.postJob(ctx, path, spec)
}

// PredictResponse is one prediction query result plus envelope metadata.
type PredictResponse struct {
	Hash   string
	Cached bool
	Result experiments.PredictResult
	Raw    json.RawMessage
}

// Predict runs one prediction query.
func (c *Client) Predict(ctx context.Context, spec server.JobSpec) (PredictResponse, error) {
	var out PredictResponse
	env, err := c.postJob(ctx, "/v1/predict", spec)
	if err != nil {
		return out, err
	}
	out.Hash, out.Cached, out.Raw = env.Hash, env.Cached, env.Result
	if err := json.Unmarshal(env.Result, &out.Result); err != nil {
		return out, fmt.Errorf("gliderd: decoding predict result: %w", err)
	}
	return out, nil
}

// EstimateResponse is one surrogate-estimate result plus envelope metadata.
type EstimateResponse struct {
	Hash   string
	Cached bool
	// Source echoes the X-Gliderd-Estimate attribution header — "surrogate"
	// or "exact-fallback" — and always matches Result.Source.
	Source string
	Result experiments.EstimateResult
	Raw    json.RawMessage
}

// Estimate runs one estimate query: a surrogate answer with explicit error
// bounds when the server's confidence gate accepts the cell, an exact
// simulation otherwise (Source says which).
func (c *Client) Estimate(ctx context.Context, spec server.JobSpec) (EstimateResponse, error) {
	var out EstimateResponse
	env, hdr, err := c.postJobHeader(ctx, "/v1/estimate", spec)
	if err != nil {
		return out, err
	}
	out.Hash, out.Cached, out.Raw = env.Hash, env.Cached, env.Result
	out.Source = hdr.Get(server.EstimateHeader)
	if err := json.Unmarshal(env.Result, &out.Result); err != nil {
		return out, fmt.Errorf("gliderd: decoding estimate result: %w", err)
	}
	return out, nil
}

// Batch streams a job batch and invokes fn once per envelope, in job order,
// as rows arrive. fn returning an error stops the stream and returns that
// error.
func (c *Client) Batch(ctx context.Context, jobs []server.JobSpec, fn func(i int, env server.Envelope) error) error {
	body, err := json.Marshal(server.BatchRequest{Jobs: jobs})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiErrorFrom(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	i := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var env server.Envelope
		if err := json.Unmarshal(line, &env); err != nil {
			return fmt.Errorf("gliderd: decoding batch row %d: %w", i, err)
		}
		if err := fn(i, env); err != nil {
			return err
		}
		i++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if i != len(jobs) {
		return fmt.Errorf("gliderd: batch stream ended after %d of %d rows", i, len(jobs))
	}
	return nil
}

// Catalog fetches the server's workload/policy catalog.
func (c *Client) Catalog(ctx context.Context) (server.Catalog, error) {
	var out server.Catalog
	return out, c.getJSON(ctx, "/v1/catalog", &out)
}

// LedgerRoot fetches the server's experiment-ledger chain head. A server
// without a ledger answers 404 (surfaced as *APIError).
func (c *Client) LedgerRoot(ctx context.Context) (ledger.ChainState, error) {
	var out ledger.ChainState
	return out, c.getJSON(ctx, "/v1/ledger/root", &out)
}

// LedgerProof fetches the inclusion proof for a hex artifact ID. The proof
// is returned as served; call Verify on it — the whole point is that the
// client need not trust the server's answer.
func (c *Client) LedgerProof(ctx context.Context, artifact string) (ledger.Proof, error) {
	var out ledger.Proof
	return out, c.getJSON(ctx, "/v1/ledger/proof?artifact="+url.QueryEscape(artifact), &out)
}

// Health reports the server's health state ("ok" or "draining"). A draining
// server answers 503; that state string is still returned alongside the
// *APIError.
func (c *Client) Health(ctx context.Context) (string, error) {
	h, err := c.HealthDetail(ctx)
	return h.Status, err
}

// HealthDetail fetches the full /healthz payload — shard identity, drain
// state, queue occupancy. Like Health, a non-200 answer still returns the
// decoded payload alongside the *APIError, so callers (the gateway's
// membership poller) can distinguish "draining" from "dead".
func (c *Client) HealthDetail(ctx context.Context) (server.Health, error) {
	var body server.Health
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return body, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return body, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	_ = json.Unmarshal(data, &body)
	if resp.StatusCode != http.StatusOK {
		return body, &APIError{StatusCode: resp.StatusCode, Message: body.Status, RetryAfter: retryAfter(resp)}
	}
	return body, nil
}

// Metrics fetches the server's metric snapshot.
func (c *Client) Metrics(ctx context.Context) (obs.Snapshot, error) {
	var out obs.Snapshot
	return out, c.getJSON(ctx, "/metrics", &out)
}

// ------------------------------------------------------------- internals

func (c *Client) postJob(ctx context.Context, path string, spec server.JobSpec) (server.Envelope, error) {
	env, _, err := c.postJobHeader(ctx, path, spec)
	return env, err
}

func (c *Client) postJobHeader(ctx context.Context, path string, spec server.JobSpec) (server.Envelope, http.Header, error) {
	var env server.Envelope
	body, err := json.Marshal(spec)
	if err != nil {
		return env, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return env, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return env, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return env, resp.Header, apiErrorFrom(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return env, resp.Header, fmt.Errorf("gliderd: decoding envelope: %w", err)
	}
	return env, resp.Header, nil
}

func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiErrorFrom(resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func apiErrorFrom(resp *http.Response) *APIError {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var body struct {
		Error string `json:"error"`
	}
	_ = json.Unmarshal(data, &body)
	msg := body.Error
	if msg == "" {
		msg = http.StatusText(resp.StatusCode)
	}
	return &APIError{StatusCode: resp.StatusCode, Message: msg, RetryAfter: retryAfter(resp)}
}

func retryAfter(resp *http.Response) time.Duration {
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}
