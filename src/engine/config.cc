#include "engine/config.h"

namespace bionicdb::engine {

const char* EngineModeName(EngineMode m) {
  switch (m) {
    case EngineMode::kConventional:
      return "Conventional";
    case EngineMode::kDora:
      return "DORA";
    case EngineMode::kBionic:
      return "Bionic";
  }
  return "?";
}

const char* EngineModeArg(EngineMode m) {
  switch (m) {
    case EngineMode::kConventional:
      return "conventional";
    case EngineMode::kDora:
      return "dora";
    case EngineMode::kBionic:
      return "bionic";
  }
  return "?";
}

bool ParseEngineMode(std::string_view name, EngineMode* mode) {
  for (EngineMode m :
       {EngineMode::kConventional, EngineMode::kDora, EngineMode::kBionic}) {
    if (name == EngineModeArg(m)) {
      *mode = m;
      return true;
    }
  }
  return false;
}

EngineConfig EngineConfig::Conventional() {
  EngineConfig c;
  c.mode = EngineMode::kConventional;
  c.platform = hw::PlatformSpec::CommodityServer();
  return c;
}

EngineConfig EngineConfig::Dora() {
  EngineConfig c;
  c.mode = EngineMode::kDora;
  c.platform = hw::PlatformSpec::CommodityServer();
  return c;
}

EngineConfig EngineConfig::Bionic() {
  EngineConfig c;
  c.mode = EngineMode::kBionic;
  c.platform = hw::PlatformSpec::ConveyHC2();
  c.offload = OffloadConfig::AllOn();
  return c;
}

EngineConfig EngineConfig::For(EngineMode mode) {
  switch (mode) {
    case EngineMode::kConventional:
      return Conventional();
    case EngineMode::kDora:
      return Dora();
    case EngineMode::kBionic:
      return Bionic();
  }
  return Dora();
}

}  // namespace bionicdb::engine
