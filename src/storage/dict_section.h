#ifndef SCISPARQL_STORAGE_DICT_SECTION_H_
#define SCISPARQL_STORAGE_DICT_SECTION_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "rdf/graph.h"

namespace scisparql {
namespace storage {

/// Dictionary-encoded snapshot section — the one snapshot body format,
/// shared by checkpoints and replica bootstrap: the graph's distinct terms
/// are written once (arrays, proxies included, materialized inline so a
/// section loads with no array storage attached), followed by the triples
/// as fixed-width index tuples. The body starts with a NUL magic byte.

/// True when `body` is a dictionary-encoded section.
bool IsDictSection(const std::string& body);

/// Serializes the graph's live triples as a dictionary section.
Result<std::string> EncodeDictSection(const Graph& g);

/// Decodes a dictionary section into `g` as one WriteBatch.
Status DecodeDictSection(const std::string& body, Graph* g);

}  // namespace storage
}  // namespace scisparql

#endif  // SCISPARQL_STORAGE_DICT_SECTION_H_
