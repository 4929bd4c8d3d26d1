// Flat-file serialization of SocialDataset, so generated corpora can be
// inspected, versioned, and reloaded without regenerating (and so real data
// in the same format can be swapped in).
//
// Layout under <dir>/, one record per line:
//   vocab.tsv      word per line (line number = WordId)
//   posts.tsv      author \t time \t space-separated word ids
//   followers.tsv  src \t dst            (dst follows src)
//   links.tsv      src \t dst            (interaction network)
//   retweets.tsv   author \t post \t r:<ids comma-sep> \t n:<ids comma-sep>
//
// Loading reads each file whole and parses it in place. The grammar:
//   - A vocab line is the word, verbatim (a trailing '\r' included); blank
//     lines are skipped and do not take an id.
//   - On the other four files, fields are separated by runs of spaces or
//     tabs, one trailing '\r' is dropped, and lines without fields are
//     skipped. Every id is a decimal int32; an id list may be empty and
//     skips empty items ("r:" and "r:1,,2" are fine).
//   - num_users is 1 + the largest author; num_time_slices is 1 + the
//     largest time.
// Validation: every number must parse whole and fit int32. Authors and
// times must be >= 0; word ids in [0, vocabulary size); graph endpoints and
// retweet authors, retweeters and ignorers in [0, num_users); retweet post
// ids in [0, num_posts). Edge and retweet lines take no extra field, and
// the id lists need their r: and n: prefixes. Any violation fails the whole
// load with kIOError "<file>:<line>: <reason>", so nothing downstream ever
// sees an out-of-range id.
//
// Ground truth is not serialized; it exists only for synthetic data.
#pragma once

#include <string>

#include "data/social_dataset.h"
#include "util/status.h"

namespace cold::data {

/// \brief Writes `dataset` under directory `dir` (created if absent).
cold::Status SaveDataset(const SocialDataset& dataset, const std::string& dir);

/// \brief Reads a dataset previously written by SaveDataset (or any files
/// that follow the grammar above). The returned dataset has an empty
/// GroundTruth.
cold::Result<SocialDataset> LoadDataset(const std::string& dir);

}  // namespace cold::data
