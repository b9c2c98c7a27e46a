package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"disarcloud/internal/kb"
)

// handleKB exports the coordinator's knowledge base — the pull side of the
// replication protocol.
func (c *Coordinator) handleKB(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(rw, http.StatusMethodNotAllowed, errors.New("cluster: GET required"))
		return
	}
	if c.kb == nil {
		writeError(rw, http.StatusNotFound, errors.New("cluster: no knowledge base attached"))
		return
	}
	writeJSON(rw, http.StatusOK, c.kb.Samples())
}

// SyncKB pulls every peer coordinator's knowledge base and merges the
// samples into the local one. The merge is a multiset max-union (see
// kb.Merge): idempotent and order-independent, so peers gossiping on
// independent schedules converge to the same knowledge base. Merging does
// not train anything: a caller that added samples follows with the learn
// step (core.Deployer.Relearn), so its predictor trains on the whole
// cluster's measurements. Unreachable peers are skipped and reported
// joined; reachable peers still merge.
func (c *Coordinator) SyncKB(ctx context.Context, peers []string) (added int, err error) {
	if c.kb == nil {
		return 0, errors.New("cluster: no knowledge base attached")
	}
	var errs []error
	for _, peer := range peers {
		samples, ferr := fetchKB(ctx, c.client, peer)
		if ferr != nil {
			errs = append(errs, fmt.Errorf("peer %s: %w", peer, ferr))
			continue
		}
		n := c.kb.Merge(samples)
		added += n
		c.kbSamplesMerged.Add(int64(n))
	}
	return added, errors.Join(errs...)
}

// fetchKB retrieves a peer's sample export.
func fetchKB(ctx context.Context, client *http.Client, peer string) ([]kb.Sample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/kb", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: kb export status %d", resp.StatusCode)
	}
	var samples []kb.Sample
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxRequestBytes)).Decode(&samples); err != nil {
		return nil, err
	}
	return samples, nil
}
