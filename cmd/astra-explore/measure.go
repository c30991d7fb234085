package main

import (
	"context"

	"astra/internal/mapreduce"
	"astra/internal/model"
	"astra/internal/simworld"
)

// measure executes one sweep point on a fresh simulated platform.
func measure(params model.Params, cfg mapreduce.Config) (*mapreduce.Report, error) {
	w, err := simworld.New(params, simworld.Input{Bucket: "in"})
	if err != nil {
		return nil, err
	}
	return w.Run(context.Background(), cfg, nil, nil)
}
