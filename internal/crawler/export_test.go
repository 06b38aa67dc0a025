package crawler

// The checkpoint wire types, for the reference encoder in
// checkpoint_test.go.
type (
	CheckpointFile = checkpointFile
	CheckpointStep = checkpointStep
	CheckpointV2   = checkpointV2
	WireRecord     = wireRecord
	MatchPair      = matchPair
)

const CheckpointVersion = checkpointVersion
