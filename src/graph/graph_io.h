#pragma once

#include <iosfwd>
#include <string>

#include "common/result.h"
#include "graph/graph_database.h"

namespace gbda {

/// Text serialization in the standard graph-transaction format used by the
/// AIDS-style chemical datasets:
///
///   t # <graph-id>
///   v <vertex-index> <vertex-label>
///   e <u> <v> <edge-label>
///
/// Vertex indices must be dense and ascending within each block; labels are
/// arbitrary whitespace-free strings interned into the database dictionaries.
/// Lines starting with '#' and blank lines are ignored.

/// Parses a whole database from a stream. Fails with a line-numbered message
/// on malformed input.
Result<GraphDatabase> ReadTransactionStream(std::istream& in);

/// Parses a database from a file path.
Result<GraphDatabase> ReadTransactionFile(const std::string& path);

/// Writes all graphs of `db` in transaction format.
Status WriteTransactionStream(const GraphDatabase& db, std::ostream& out);

/// Writes all graphs of `db` to a file path.
Status WriteTransactionFile(const GraphDatabase& db, const std::string& path);

}  // namespace gbda
