#include "graph/graph_io.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/string_util.h"

namespace gbda {
namespace {

Status ParseError(size_t line_no, const std::string& detail) {
  return Status::InvalidArgument(
      StrFormat("transaction format, line %zu: %s", line_no, detail.c_str()));
}

}  // namespace

Result<GraphDatabase> ReadTransactionStream(std::istream& in) {
  GraphDatabase db;
  Graph current;
  bool in_graph = false;
  std::string line;
  size_t line_no = 0;

  auto flush = [&]() {
    if (in_graph) db.Add(std::move(current));
    current = Graph();
  };

  while (std::getline(in, line)) {
    ++line_no;
    std::string_view sv = Trim(line);
    if (sv.empty() || sv[0] == '#') continue;
    const std::vector<std::string> tok = Split(sv, ' ');
    if (tok[0] == "t") {
      flush();
      in_graph = true;
    } else if (tok[0] == "v") {
      if (!in_graph) return ParseError(line_no, "'v' before any 't' header");
      if (tok.size() != 3) return ParseError(line_no, "'v' needs index and label");
      Result<int64_t> idx = ParseInt(tok[1]);
      if (!idx.ok()) return ParseError(line_no, idx.status().message());
      if (*idx != static_cast<int64_t>(current.num_vertices())) {
        return ParseError(line_no,
                          StrFormat("vertex indices must be dense; expected %zu",
                                    current.num_vertices()));
      }
      current.AddVertex(db.vertex_labels().Intern(tok[2]));
    } else if (tok[0] == "e") {
      if (!in_graph) return ParseError(line_no, "'e' before any 't' header");
      if (tok.size() != 4) return ParseError(line_no, "'e' needs u, v and label");
      Result<int64_t> u = ParseInt(tok[1]);
      Result<int64_t> v = ParseInt(tok[2]);
      if (!u.ok()) return ParseError(line_no, u.status().message());
      if (!v.ok()) return ParseError(line_no, v.status().message());
      Status st = current.AddEdge(static_cast<uint32_t>(*u), static_cast<uint32_t>(*v),
                                  db.edge_labels().Intern(tok[3]));
      if (!st.ok()) return ParseError(line_no, st.message());
    } else {
      return ParseError(line_no, "unknown record type '" + tok[0] + "'");
    }
  }
  flush();
  return db;
}

Result<GraphDatabase> ReadTransactionFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  return ReadTransactionStream(in);
}

Status WriteTransactionStream(const GraphDatabase& db, std::ostream& out) {
  for (size_t id = 0; id < db.size(); ++id) {
    const Graph& g = db.graph(id);
    out << "t # " << id << "\n";
    for (uint32_t v = 0; v < g.num_vertices(); ++v) {
      Result<std::string> name = db.vertex_labels().Name(g.VertexLabel(v));
      if (!name.ok()) return name.status();
      out << "v " << v << " " << *name << "\n";
    }
    for (const Graph::EdgeTriple& e : g.SortedEdges()) {
      Result<std::string> name = db.edge_labels().Name(e.label);
      if (!name.ok()) return name.status();
      out << "e " << e.u << " " << e.v << " " << *name << "\n";
    }
  }
  if (!out) return Status::IOError("stream write failed");
  return Status::OK();
}

Status WriteTransactionFile(const GraphDatabase& db, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  return WriteTransactionStream(db, out);
}

}  // namespace gbda
