/**
 * @file
 * Cell/row codec implementation and JobSpec construction.
 */

#include "sim/service/wire.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace specint::service
{

using experiment::Row;
using experiment::RunOptions;
using experiment::Value;

Json
encodeValue(const Value &v)
{
    Json j = Json::object();
    switch (v.kind()) {
      case Value::Kind::Str:
        j.set("t", Json::str("s"));
        j.set("v", Json::str(v.strValue()));
        break;
      case Value::Kind::Int:
        j.set("t", Json::str("i"));
        j.set("v", Json::integer(v.intValue()));
        break;
      case Value::Kind::UInt:
        j.set("t", Json::str("u"));
        j.set("v", Json::uinteger(v.uintValue()));
        break;
      case Value::Kind::Real: {
        j.set("t", Json::str("r"));
        // As text: %.17g round-trips the double exactly, and the
        // display precision rides along so text()/csv() renderings of
        // the decoded cell are byte-identical.
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v.realValue());
        j.set("v", Json::str(buf));
        j.set("p", Json::integer(v.precision()));
        break;
      }
      case Value::Kind::Bool:
        j.set("t", Json::str("b"));
        j.set("v", Json::boolean(v.boolValue()));
        break;
    }
    return j;
}

bool
decodeValue(const Json &j, Value &out)
{
    if (!j.isObj())
        return false;
    const std::string t = j.getStr("t");
    const Json &v = j.get("v");
    if (t == "s") {
        if (!v.isStr())
            return false;
        out = Value::str(v.strValue());
        return true;
    }
    if (t == "i") {
        if (!v.isNumber())
            return false;
        out = Value::integer(v.i64());
        return true;
    }
    if (t == "u") {
        if (!v.isNumber())
            return false;
        out = Value::uinteger(v.u64());
        return true;
    }
    if (t == "r") {
        if (!v.isStr())
            return false;
        errno = 0;
        char *tail = nullptr;
        const double d = std::strtod(v.strValue().c_str(), &tail);
        if (errno != 0 || !tail || *tail != '\0')
            return false;
        out = Value::real(d,
                          static_cast<int>(j.get("p").i64()));
        return true;
    }
    if (t == "b") {
        if (!v.isBool())
            return false;
        out = Value::boolean(v.boolValue());
        return true;
    }
    return false;
}

Json
encodeRows(const std::vector<Row> &rows)
{
    Json arr = Json::array();
    for (const Row &row : rows) {
        Json jrow = Json::array();
        for (const Value &cell : row)
            jrow.push(encodeValue(cell));
        arr.push(std::move(jrow));
    }
    return arr;
}

bool
decodeRows(const Json &j, std::vector<Row> &out)
{
    if (!j.isArr())
        return false;
    out.clear();
    out.reserve(j.items().size());
    for (const Json &jrow : j.items()) {
        if (!jrow.isArr())
            return false;
        Row row;
        row.reserve(jrow.items().size());
        for (const Json &jcell : jrow.items()) {
            Value cell;
            if (!decodeValue(jcell, cell))
                return false;
            row.push_back(std::move(cell));
        }
        out.push_back(std::move(row));
    }
    return true;
}

JobSpec
JobSpec::fromOptions(const std::string &scenario_name,
                     const RunOptions &opt)
{
    JobSpec spec;
    spec.scenario = scenario_name;
    spec.trials = opt.trials;
    spec.seed = opt.seed;
    spec.extra = opt.extra;
    return spec;
}

} // namespace specint::service
