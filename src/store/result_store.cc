#include "store/result_store.hh"

#include <fcntl.h>
#include <unistd.h>

#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/hash.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "obs/timeline.hh"
#include "store/codec.hh"
#include "store/key.hh"

namespace fs = std::filesystem;

namespace dlp::store {

namespace {

/** Whole-file read; returns false if the file cannot be opened. */
bool
slurp(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return in.good() || in.eof();
}

} // namespace

ResultStore::ResultStore(std::string directory) : root(std::move(directory))
{
    fatal_if(root.empty(), "result store with empty directory");
    std::error_code ec;
    fs::create_directories(fs::path(root) / "objects", ec);
    fatal_if(ec.operator bool(), "cannot create store directory '%s': %s",
             root.c_str(), ec.message().c_str());
}

std::string
ResultStore::entryPath(const std::string &key) const
{
    fatal_if(key.size() < 2, "malformed store key '%s'", key.c_str());
    return (fs::path(root) / "objects" / key.substr(0, 2) / (key + ".json"))
        .string();
}

std::string
ResultStore::indexPath() const
{
    return (fs::path(root) / "index.ndjson").string();
}

ResultStore::ReadStatus
ResultStore::readRawEntry(const std::string &key, json::Value *out)
{
    std::string text;
    if (!slurp(entryPath(key), text))
        return ReadStatus::Absent;

    // Anything wrong past this point — malformed JSON, missing fields,
    // checksum or version or key mismatch — is a defect in the entry,
    // never a crash: the caller treats it as a miss and recomputes.
    try {
        json::Value doc = json::parse(text);
        using Kind = json::Value::Kind;
        auto str = [&doc](const char *name) {
            return documentField(doc, name, Kind::String).asString();
        };
        if (documentField(doc, "format", Kind::Number).asNumber() !=
            double(codecFormatVersion))
            return ReadStatus::Corrupt;
        // The code version rides inside the key, so a well-formed entry
        // under this key must carry the current version; anything else
        // was tampered with or copied across builds.
        if (str("codeVersion") != codeVersion() || str("key") != key)
            return ReadStatus::Corrupt;
        const json::Value &result = documentField(doc, "result", Kind::Object);
        if (fnv1a128(json::write(result, 0)).hex() != str("checksum"))
            return ReadStatus::Corrupt;
        if (out)
            *out = result;
        return ReadStatus::Ok;
    } catch (const std::exception &) {
        return ReadStatus::Corrupt;
    }
}

ResultStore::ReadStatus
ResultStore::readEntry(const std::string &key, arch::ExperimentResult *out)
{
    json::Value result;
    ReadStatus st = readRawEntry(key, out ? &result : nullptr);
    if (st != ReadStatus::Ok || !out)
        return st;
    try {
        *out = resultFromJson(result);
    } catch (const std::exception &) {
        return ReadStatus::Corrupt;
    }
    return ReadStatus::Ok;
}

bool
ResultStore::lookup(const std::string &key, arch::ExperimentResult &out)
{
    ReadStatus st = readEntry(key, &out);
    if (st == ReadStatus::Ok) {
        {
            std::lock_guard<std::mutex> lock(mu);
            ++hitCount;
        }
        obs::hostInstant(obs::Cat::Store, "hit",
                         out.kernel + "/" + out.config);
        return true;
    }
    if (st == ReadStatus::Corrupt) {
        // Repair: drop the bad entry so the recompute's insert replaces
        // it instead of leaving a poisoned file behind.
        std::error_code ec;
        fs::remove(entryPath(key), ec);
        {
            std::lock_guard<std::mutex> lock(mu);
            ++corruptCount;
        }
        obs::hostInstant(obs::Cat::Store, "corrupt", key.substr(0, 12));
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        ++missCount;
    }
    obs::hostInstant(obs::Cat::Store, "miss", key.substr(0, 12));
    return false;
}

void
ResultStore::publishEntry(const std::string &key, json::Value result,
                          const std::string &kernel,
                          const std::string &config)
{
    std::string resultText = json::write(result, 0);

    json::Value doc = json::Value::object();
    doc.set("format", codecFormatVersion);
    doc.set("codeVersion", codeVersion());
    doc.set("key", key);
    doc.set("checksum", fnv1a128(resultText).hex());
    doc.set("result", std::move(result));
    std::string text = json::write(doc, 0);
    text += '\n';

    std::string finalPath = entryPath(key);
    fs::path dir = fs::path(finalPath).parent_path();
    std::error_code ec;
    fs::create_directories(dir, ec);
    fatal_if(ec.operator bool(), "cannot create '%s': %s",
             dir.string().c_str(), ec.message().c_str());

    // Write-to-temp + rename: readers never see a partial entry, and a
    // concurrent insert of the same key races benignly (deterministic
    // results mean both writers produced identical bytes).
    std::string tmpPath =
        finalPath + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream tmp(tmpPath, std::ios::binary | std::ios::trunc);
        fatal_if(!tmp, "cannot open '%s' for writing", tmpPath.c_str());
        tmp << text;
        tmp.close();
        fatal_if(!tmp, "failed writing '%s'", tmpPath.c_str());
    }
    fs::rename(tmpPath, finalPath, ec);
    if (ec) {
        fs::remove(tmpPath, ec);
        fatal("cannot publish store entry '%s'", finalPath.c_str());
    }

    appendIndexLine(key, kernel, config, text.size());
    {
        std::lock_guard<std::mutex> lock(mu);
        ++insertCount;
    }
    obs::hostInstant(obs::Cat::Store, "insert", kernel + "/" + config);
}

void
ResultStore::insert(const std::string &key, const arch::ExperimentResult &r)
{
    publishEntry(key, resultToJson(r), r.kernel, r.config);
}

bool
ResultStore::lookupRaw(const std::string &key, json::Value &out)
{
    ReadStatus st = readRawEntry(key, &out);
    if (st == ReadStatus::Ok) {
        {
            std::lock_guard<std::mutex> lock(mu);
            ++hitCount;
        }
        obs::hostInstant(obs::Cat::Store, "hit", key.substr(0, 12));
        return true;
    }
    if (st == ReadStatus::Corrupt) {
        std::error_code ec;
        fs::remove(entryPath(key), ec);
        {
            std::lock_guard<std::mutex> lock(mu);
            ++corruptCount;
        }
        obs::hostInstant(obs::Cat::Store, "corrupt", key.substr(0, 12));
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        ++missCount;
    }
    obs::hostInstant(obs::Cat::Store, "miss", key.substr(0, 12));
    return false;
}

void
ResultStore::insertRaw(const std::string &key, const json::Value &doc,
                       const std::string &kind)
{
    publishEntry(key, doc, kind, "");
}

void
ResultStore::appendIndexLine(const std::string &key,
                             const std::string &kernel,
                             const std::string &config, uint64_t bytes)
{
    json::Value line = json::Value::object();
    line.set("key", key);
    line.set("kernel", kernel);
    line.set("config", config);
    line.set("bytes", bytes);
    std::string text = json::write(line, 0);
    text += '\n';

    // A single short append write is atomic enough for an advisory
    // index: worst case a torn tail line, which every reader skips.
    int fd = ::open(indexPath().c_str(), O_WRONLY | O_APPEND | O_CREAT,
                    0644);
    fatal_if(fd < 0, "cannot open store index '%s'", indexPath().c_str());
    ssize_t n = ::write(fd, text.data(), text.size());
    ::close(fd);
    if (n != ssize_t(text.size()))
        warn("short write to store index '%s'", indexPath().c_str());
}

bool
ResultStore::verifyEntry(const std::string &key)
{
    return readEntry(key, nullptr) == ReadStatus::Ok;
}

StoreStats
ResultStore::stats()
{
    StoreStats s;
    {
        std::lock_guard<std::mutex> lock(mu);
        s.hits = hitCount;
        s.misses = missCount;
        s.inserts = insertCount;
        s.corrupt = corruptCount;
    }

    // The index is advisory and append-only: tolerate garbage lines
    // (torn tails, partial writes) by skipping them, and deduplicate by
    // key so re-inserts and concurrent writers do not double-count.
    std::ifstream in(indexPath());
    std::map<std::string, uint64_t> byKey;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        try {
            json::Value v = json::parse(line);
            byKey[std::string(v.at("key").asString())] =
                static_cast<uint64_t>(v.at("bytes").asNumber());
        } catch (const std::exception &) {
            continue;
        }
    }
    s.entries = byKey.size();
    for (const auto &[key, bytes] : byKey)
        s.bytes += bytes;
    return s;
}

void
ResultStore::rebuildIndex()
{
    std::string fresh;
    std::error_code ec;
    for (const auto &shard :
         fs::directory_iterator(fs::path(root) / "objects", ec)) {
        if (!shard.is_directory())
            continue;
        for (const auto &entry : fs::directory_iterator(shard.path())) {
            if (entry.path().extension() != ".json")
                continue;
            std::string key = entry.path().stem().string();
            std::string text;
            if (!slurp(entry.path().string(), text))
                continue;
            try {
                json::Value doc = json::parse(text);
                const json::Value &result = doc.at("result");
                // Raw documents (service runs) carry no "kernel" field;
                // index them under their document kind.
                const json::Value *kernel = result.find("kernel");
                const json::Value *config = result.find("config");
                json::Value line = json::Value::object();
                line.set("key", key);
                line.set("kernel",
                         kernel ? kernel->asString() : "service");
                line.set("config", config ? config->asString() : "");
                line.set("bytes", uint64_t(text.size()));
                fresh += json::write(line, 0);
                fresh += '\n';
            } catch (const std::exception &) {
                continue; // unreadable entries stay unindexed
            }
        }
    }

    std::string tmpPath = indexPath() + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream tmp(tmpPath, std::ios::binary | std::ios::trunc);
        fatal_if(!tmp, "cannot open '%s' for writing", tmpPath.c_str());
        tmp << fresh;
        tmp.close();
        fatal_if(!tmp, "failed writing '%s'", tmpPath.c_str());
    }
    fs::rename(tmpPath, indexPath(), ec);
    fatal_if(ec.operator bool(), "cannot replace store index '%s'",
             indexPath().c_str());
}

} // namespace dlp::store
