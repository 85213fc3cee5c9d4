// Package stats provides a seeded reservoir sample with exact quantiles
// over it, from which the daemon and its load generator report latency
// percentiles.
package stats
