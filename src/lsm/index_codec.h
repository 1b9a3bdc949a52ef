// Wire codec for shipped index segments (Send-Index, paper §3.3). The
// primary encodes each completed segment once and fans the encoded bytes out
// to every backup; a backup decodes them back to the primary's exact image
// before rewriting offsets, so its levels stay byte-identical. The format is
// documented beside the node format in format.h.
#ifndef TEBIS_LSM_INDEX_CODEC_H_
#define TEBIS_LSM_INDEX_CODEC_H_

#include <string>

#include "src/common/slice.h"
#include "src/common/status.h"

namespace tebis {

// Encodes `segment`, a run of `node_size`-byte nodes (the last one may be
// short), for the wire. Total: any bytes encode, and decode back to
// themselves. `node_size` must be non-zero.
std::string EncodeIndexSegment(Slice segment, size_t node_size);

// Decodes `encoded` into `out`, replacing its contents. Corruption when the
// bytes are not an encoding made with this `node_size`, or would decode to
// more than `max_size` bytes: `out` never grows past `max_size`.
Status DecodeIndexSegment(Slice encoded, size_t node_size, size_t max_size, std::string* out);

}  // namespace tebis

#endif  // TEBIS_LSM_INDEX_CODEC_H_
