package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"secdir/internal/leakage"
	"secdir/internal/server"
)

// runFleet submits spec to the secdir-serve coordinator at baseURL, relays
// the job's progress stream to progress (nil = discard) until the job ends,
// and returns its result: a *leakage.Report for a leak job, a
// *leakage.Leaderboard for a leaderboard job.
func runFleet(ctx context.Context, baseURL string, spec server.JobSpec, progress server.ProgressFunc) (any, error) {
	base := strings.TrimRight(strings.TrimSpace(baseURL), "/")
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var st server.JobStatus
	if err := call(ctx, http.MethodPost, base+"/jobs", body, http.StatusAccepted, &st); err != nil {
		return nil, fmt.Errorf("fleet: submit: %w", err)
	}

	state, msg := streamJob(ctx, base+"/jobs/"+st.ID+"/stream", progress)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !state.Terminal() {
		// The stream ended without a terminal event (connection drop, proxy
		// timeout); ask the job table directly.
		if err := call(ctx, http.MethodGet, base+"/jobs/"+st.ID, nil, http.StatusOK, &st); err != nil {
			return nil, fmt.Errorf("fleet: job %s status: %w", st.ID, err)
		}
		state, msg = st.State, st.Err
	}
	if state != server.StateDone {
		if msg == "" {
			msg = "no error detail"
		}
		return nil, fmt.Errorf("fleet: job %s %s: %s", st.ID, state, msg)
	}

	var result any = &leakage.Report{}
	if spec.Kind == server.KindLeaderboard {
		result = &leakage.Leaderboard{}
	}
	if err := call(ctx, http.MethodGet, base+"/jobs/"+st.ID+"/result", nil, http.StatusOK,
		&server.ResultBody{Result: result}); err != nil {
		return nil, fmt.Errorf("fleet: job %s result: %w", st.ID, err)
	}
	return result, nil
}

// streamJob follows a job's NDJSON event stream, handing each per-cell
// progress event to progress, and returns the terminal state and error
// message — or the zero state if the stream ended without a terminal event.
func streamJob(ctx context.Context, url string, progress server.ProgressFunc) (server.JobState, string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", ""
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", ""
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", ""
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var e server.Event
		if json.Unmarshal(sc.Bytes(), &e) != nil {
			continue
		}
		if e.State.Terminal() {
			return e.State, e.Err
		}
		if progress != nil && e.Stage != "" && e.Stage != "start" {
			progress(e.Stage, e.Done, e.Total)
		}
	}
	return "", ""
}

// call sends one job-API request and decodes the response body into v when
// the status is want; any other status becomes an error carrying the
// server's message.
func call(ctx context.Context, method, url string, body []byte, want int, v any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		var ae server.APIError
		if json.Unmarshal(raw, &ae) == nil && ae.Error != "" {
			return fmt.Errorf("HTTP %d: %s", resp.StatusCode, ae.Error)
		}
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return json.Unmarshal(raw, v)
}
