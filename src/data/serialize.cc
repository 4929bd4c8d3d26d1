#include "data/serialize.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string_view>

#include "util/fileio.h"

namespace cold::data {

namespace {

void WriteGraph(std::ostream& out, const graph::Digraph& g) {
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    out << g.edge(e).src << '\t' << g.edge(e).dst << '\n';
  }
}

void WriteIdList(std::ostream& out, const std::vector<UserId>& ids) {
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out << ',';
    out << ids[i];
  }
}

/// Author and time ids stop one short of INT32_MAX, so 1 + the largest
/// (num_users, num_time_slices) still fits an int.
constexpr int64_t kIdLimit = std::numeric_limits<int32_t>::max();

/// A field as quoted in an error message, cut short if long.
std::string Quote(std::string_view field) {
  constexpr size_t kMax = 32;
  std::string quoted(1, '\'');
  quoted += field.substr(0, kMax);
  quoted += field.size() > kMax ? "...'" : "'";
  return quoted;
}

/// The fields of one line of a numeric file: runs of spaces or tabs
/// separate them, and one trailing '\r' is dropped. Every error names the
/// file and line.
class Fields {
 public:
  Fields(const std::string& path, int64_t line, std::string_view text)
      : path_(path), line_(line), rest_(text) {
    if (!rest_.empty() && rest_.back() == '\r') rest_.remove_suffix(1);
  }

  /// True iff no field is left.
  bool AtEnd() {
    size_t n = 0;
    while (n < rest_.size() && IsBlank(rest_[n])) ++n;
    rest_.remove_prefix(n);
    return rest_.empty();
  }

  /// The next field as an id in [0, limit); `what` names it in errors.
  cold::Status NextId(const char* what, int64_t limit, int32_t* id) {
    const std::string_view field = Next();
    if (field.empty()) return Error(std::string("missing ") + what);
    return ParseId(field, what, limit, id);
  }

  /// The next field as `prefix` and then comma-separated ids in
  /// [0, limit); empty items are skipped.
  cold::Status NextIdList(std::string_view prefix, const char* what,
                          int64_t limit, std::vector<int32_t>* ids) {
    std::string_view field = Next();
    if (field.empty()) {
      return Error("missing " + std::string(prefix) + " list");
    }
    if (!field.starts_with(prefix)) {
      return Error(Quote(field) + " lacks the " + std::string(prefix) +
                   " prefix");
    }
    field.remove_prefix(prefix.size());
    while (!field.empty()) {
      const size_t comma = std::min(field.find(','), field.size());
      const std::string_view item = field.substr(0, comma);
      field.remove_prefix(std::min(comma + 1, field.size()));
      if (item.empty()) continue;
      int32_t id = 0;
      COLD_RETURN_NOT_OK(ParseId(item, what, limit, &id));
      ids->push_back(id);
    }
    return cold::Status::OK();
  }

  /// Fails if a field is left.
  cold::Status End() {
    const std::string_view extra = Next();
    return extra.empty() ? cold::Status::OK()
                         : Error("extra field " + Quote(extra));
  }

  cold::Status Error(const std::string& reason) const {
    return cold::Status::IOError(path_ + ":" + std::to_string(line_) +
                                 ": " + reason);
  }

 private:
  // Hand-written scans: string_view::find_first_of calls memchr once per
  // byte, which made the whole load 1.7x slower.
  static bool IsBlank(char c) { return c == ' ' || c == '\t'; }

  /// The next field, or "" if none is left.
  std::string_view Next() {
    AtEnd();
    size_t n = 0;
    while (n < rest_.size() && !IsBlank(rest_[n])) ++n;
    const std::string_view field = rest_.substr(0, n);
    rest_.remove_prefix(n);
    return field;
  }

  /// All of `field` as a decimal int32 in [0, limit).
  cold::Status ParseId(std::string_view field, const char* what,
                       int64_t limit, int32_t* id) const {
    const char* end = field.data() + field.size();
    int32_t value = 0;
    auto [ptr, ec] = std::from_chars(field.data(), end, value);
    if (ec == std::errc::result_out_of_range) {
      return Error(std::string(what) + " " + Quote(field) +
                   " overflows int32");
    }
    if (ec != std::errc() || ptr != end) {
      return Error(std::string(what) + " " + Quote(field) +
                   " is not a number");
    }
    if (value < 0 || value >= limit) {
      return Error(std::string(what) + " " + std::to_string(value) +
                   " outside [0, " + std::to_string(limit) + ")");
    }
    *id = value;
    return cold::Status::OK();
  }

  const std::string& path_;
  int64_t line_;
  std::string_view rest_;
};

/// Reads `path` whole and calls `fn(line, number)` for each line, numbered
/// from 1 and split as std::getline splits (a last line without '\n'
/// counts); stops at the first error `fn` returns.
template <typename Fn>
cold::Status ForEachLine(const std::string& path, Fn&& fn) {
  COLD_ASSIGN_OR_RETURN(const std::string text, ReadFileToString(path));
  std::string_view rest = text;
  for (int64_t number = 1; !rest.empty(); ++number) {
    const size_t end = std::min(rest.find('\n'), rest.size());
    COLD_RETURN_NOT_OK(fn(rest.substr(0, end), number));
    rest.remove_prefix(std::min(end + 1, rest.size()));
  }
  return cold::Status::OK();
}

/// ForEachLine over the Fields of each line that has any.
template <typename Fn>
cold::Status ForEachRecord(const std::string& path, Fn&& fn) {
  return ForEachLine(path, [&](std::string_view line, int64_t number) {
    Fields fields(path, number, line);
    return fields.AtEnd() ? cold::Status::OK() : fn(fields);
  });
}

/// An edge file: one `src dst` pair per line, both in [0, num_users).
cold::Result<graph::Digraph> LoadGraph(const std::string& path,
                                       int num_users) {
  graph::Digraph::Builder builder;
  COLD_RETURN_NOT_OK(ForEachRecord(path, [&](Fields& fields) {
    graph::NodeId src = 0, dst = 0;
    COLD_RETURN_NOT_OK(fields.NextId("src", num_users, &src));
    COLD_RETURN_NOT_OK(fields.NextId("dst", num_users, &dst));
    COLD_RETURN_NOT_OK(fields.End());
    const cold::Status st = builder.AddEdge(src, dst);
    return st.ok() ? st : fields.Error(st.message());
  }));
  return std::move(builder).Build(num_users);
}

}  // namespace

cold::Status SaveDataset(const SocialDataset& dataset,
                         const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return cold::Status::IOError("mkdir failed: " + dir);

  // Each file is rendered in memory and written atomically (tmp + fsync +
  // rename), so a crash mid-save never leaves a partially written dataset
  // behind an otherwise valid-looking directory.
  {
    std::ostringstream out;
    for (text::WordId w = 0; w < dataset.vocabulary.size(); ++w) {
      out << dataset.vocabulary.word(w) << '\n';
    }
    COLD_RETURN_NOT_OK(AtomicWriteFile(dir + "/vocab.tsv", out.str()));
  }
  {
    std::ostringstream out;
    for (PostId d = 0; d < dataset.posts.num_posts(); ++d) {
      out << dataset.posts.author(d) << '\t' << dataset.posts.time(d) << '\t';
      auto words = dataset.posts.words(d);
      for (size_t l = 0; l < words.size(); ++l) {
        if (l > 0) out << ' ';
        out << words[l];
      }
      out << '\n';
    }
    COLD_RETURN_NOT_OK(AtomicWriteFile(dir + "/posts.tsv", out.str()));
  }
  {
    std::ostringstream out;
    WriteGraph(out, dataset.followers);
    COLD_RETURN_NOT_OK(AtomicWriteFile(dir + "/followers.tsv", out.str()));
  }
  {
    std::ostringstream out;
    WriteGraph(out, dataset.interactions);
    COLD_RETURN_NOT_OK(AtomicWriteFile(dir + "/links.tsv", out.str()));
  }
  {
    std::ostringstream out;
    for (const RetweetTuple& t : dataset.retweets) {
      out << t.author << '\t' << t.post << "\tr:";
      WriteIdList(out, t.retweeters);
      out << "\tn:";
      WriteIdList(out, t.ignorers);
      out << '\n';
    }
    COLD_RETURN_NOT_OK(AtomicWriteFile(dir + "/retweets.tsv", out.str()));
  }
  return cold::Status::OK();
}

cold::Result<SocialDataset> LoadDataset(const std::string& dir) {
  SocialDataset dataset;
  COLD_RETURN_NOT_OK(ForEachLine(
      dir + "/vocab.tsv", [&](std::string_view line, int64_t) {
        if (!line.empty()) dataset.vocabulary.Add(line);
        return cold::Status::OK();
      }));

  const int vocab_size = dataset.vocabulary.size();
  std::vector<text::WordId> words;
  COLD_RETURN_NOT_OK(
      ForEachRecord(dir + "/posts.tsv", [&](Fields& fields) {
        UserId author = 0;
        TimeSlice time = 0;
        COLD_RETURN_NOT_OK(fields.NextId("author", kIdLimit, &author));
        COLD_RETURN_NOT_OK(fields.NextId("time", kIdLimit, &time));
        words.clear();
        while (!fields.AtEnd()) {
          text::WordId w = 0;
          COLD_RETURN_NOT_OK(fields.NextId("word id", vocab_size, &w));
          words.push_back(w);
        }
        dataset.posts.Add(author, time, words);
        return cold::Status::OK();
      }));
  dataset.posts.Finalize();

  const int num_users = dataset.posts.num_users();
  const int num_posts = dataset.posts.num_posts();
  COLD_ASSIGN_OR_RETURN(dataset.followers,
                        LoadGraph(dir + "/followers.tsv", num_users));
  COLD_ASSIGN_OR_RETURN(dataset.interactions,
                        LoadGraph(dir + "/links.tsv", num_users));

  COLD_RETURN_NOT_OK(
      ForEachRecord(dir + "/retweets.tsv", [&](Fields& fields) {
        RetweetTuple tuple;
        COLD_RETURN_NOT_OK(fields.NextId("author", num_users, &tuple.author));
        COLD_RETURN_NOT_OK(fields.NextId("post", num_posts, &tuple.post));
        COLD_RETURN_NOT_OK(
            fields.NextIdList("r:", "retweeter", num_users, &tuple.retweeters));
        COLD_RETURN_NOT_OK(
            fields.NextIdList("n:", "ignorer", num_users, &tuple.ignorers));
        COLD_RETURN_NOT_OK(fields.End());
        dataset.retweets.push_back(std::move(tuple));
        return cold::Status::OK();
      }));
  return dataset;
}

}  // namespace cold::data
