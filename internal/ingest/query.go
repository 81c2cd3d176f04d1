package ingest

import (
	"errors"
	"fmt"

	"repro/internal/mr"
	"repro/internal/queries"
)

// ErrBadRecord reports an input record rejected before admission;
// the HTTP layer maps it to 400.
var ErrBadRecord = errors.New("ingest: bad record")

// maxRecordBytes bounds one record so a single request line cannot
// blow the byte budget's granularity.
const maxRecordBytes = 64 << 10

// ValidateClick vets the click-log record layout the click queries
// assume: `ts(13) \t user(8) \t url \t status \t bytes \t agent` with
// a 13-digit millisecond timestamp.
func ValidateClick(rec []byte) error {
	if len(rec) < 24 {
		return fmt.Errorf("%w: click record shorter than 24 bytes", ErrBadRecord)
	}
	if len(rec) > maxRecordBytes {
		return fmt.Errorf("%w: record exceeds %d bytes", ErrBadRecord, maxRecordBytes)
	}
	if rec[13] != '\t' || rec[22] != '\t' {
		return fmt.Errorf("%w: click record field separators misplaced", ErrBadRecord)
	}
	for _, c := range rec[:13] {
		if c < '0' || c > '9' {
			return fmt.Errorf("%w: click timestamp is not 13 digits", ErrBadRecord)
		}
	}
	return nil
}

// ValidateLine vets free-text records (trigram counting).
func ValidateLine(rec []byte) error {
	if len(rec) == 0 {
		return fmt.Errorf("%w: empty record", ErrBadRecord)
	}
	if len(rec) > maxRecordBytes {
		return fmt.Errorf("%w: record exceeds %d bytes", ErrBadRecord, maxRecordBytes)
	}
	return nil
}

// StandardQuery maps a query name to its factory and record validator:
// the catalogue's constructor (queries.Factory, the names and default
// parameters cmd/onepass uses) and the validator for the record layout
// the query parses.
func StandardQuery(name string) (factory func() mr.Query, validate func([]byte) error, err error) {
	if factory, err = queries.Factory(name, 512); err != nil {
		return nil, nil, fmt.Errorf("ingest: %w", err)
	}
	if name == "trigram" {
		return factory, ValidateLine, nil
	}
	return factory, ValidateClick, nil
}
