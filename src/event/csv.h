#ifndef SES_EVENT_CSV_H_
#define SES_EVENT_CSV_H_

#include <string>

#include "common/result.h"
#include "event/columnar.h"
#include "event/relation.h"

namespace ses {

/// CSV serialization for event relations.
///
/// Layout: a header row "T,<attr1>,<attr2>,..." followed by one row per
/// event. The first column is the timestamp in ticks; the remaining columns
/// follow the schema's attribute order. String fields containing commas,
/// quotes, or newlines are quoted RFC-4180 style.
///
/// CSV files make datasets portable between the embedded storage engine and
/// external tools; the matcher itself consumes EventRelation directly.

/// Renders `relation` to a CSV string.
std::string WriteCsvString(const EventRelation& relation);

/// Writes `relation` to `path`. Overwrites an existing file.
Status WriteCsvFile(const EventRelation& relation, const std::string& path);

/// Parses a CSV string produced by WriteCsvString. The header must name the
/// timestamp column "T" first and match `schema` attribute names in order.
Result<EventRelation> ReadCsvString(const std::string& contents,
                                    const Schema& schema);

/// Reads a relation from `path`.
Result<EventRelation> ReadCsvFile(const std::string& path,
                                  const Schema& schema);

/// Decodes CSV straight into a columnar batch: each field is parsed into
/// its typed column (strings interned into the column dictionary) without
/// ever materializing a row-wise Event or Value vector. This is the single
/// decode path — the row-wise readers above are thin wrappers over it, so
/// both produce identical events (same ids, same values). Rows keep file
/// order, and the batch does not check it: an engine's stream stage
/// refuses the first backwards row. Event ids are assigned 1-based by
/// timestamp rank (stable on ties), which for an in-order file is the row
/// position. Parse errors name the offending 1-based data row and column
/// ("CSV row 3 column 'dose': ...").
Result<ColumnarBatch> ReadCsvStringColumnar(const std::string& contents,
                                            const Schema& schema);

/// Reads a columnar batch from `path`.
Result<ColumnarBatch> ReadCsvFileColumnar(const std::string& path,
                                          const Schema& schema);

}  // namespace ses

#endif  // SES_EVENT_CSV_H_
