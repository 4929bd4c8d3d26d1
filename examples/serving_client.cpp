// Scenario: embedding the serving layer in your own process. A small COLD
// model is trained on synthetic data, saved as a COLDARN1 arena (the file
// cold_train writes), and served over loopback HTTP by ModelService + HttpServer; the bundled
// HttpClient then plays the role of a downstream consumer — scoring
// diffusion candidates (Eq. 7), inspecting a topic posterior (Eq. 5),
// ranking influential communities (§6.6), and finally triggering an
// /admin/reload hot swap while the server stays up.
#include <cstdio>
#include <filesystem>

#include "core/cold.h"
#include "core/model_io.h"
#include "data/synthetic.h"
#include "serve/http.h"
#include "serve/http_server.h"
#include "serve/model_service.h"
#include "util/logging.h"

namespace {

void CheckOk(const cold::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

cold::core::ColdEstimates TrainSmallModel() {
  cold::data::SyntheticConfig config;
  config.num_users = 60;
  config.num_communities = 3;
  config.num_topics = 4;
  config.num_time_slices = 6;
  config.core_words_per_topic = 6;
  config.background_words = 20;
  config.posts_per_user = 4.0;
  config.words_per_post = 6.0;
  config.follows_per_user = 4;
  auto dataset =
      std::move(cold::data::SyntheticSocialGenerator(config).Generate())
          .ValueOrDie();

  cold::core::ColdConfig model;
  model.num_communities = 3;
  model.num_topics = 4;
  model.iterations = 30;
  model.burn_in = 15;
  cold::core::ColdGibbsSampler sampler(model, dataset.posts,
                                       &dataset.interactions);
  CheckOk(sampler.Init(), "Init");
  CheckOk(sampler.Train(), "Train");
  return sampler.AveragedEstimates();
}

void Show(const char* label,
          const cold::Result<cold::serve::HttpClient::Response>& response) {
  if (!response.ok()) {
    std::printf("%-28s transport error: %s\n", label,
                response.status().ToString().c_str());
    return;
  }
  std::printf("%-28s HTTP %d  %s\n", label, response->status_code,
              response->body.c_str());
}

}  // namespace

int main() {
  using namespace cold;
  Logger::SetLevel(LogLevel::kWarning);

  // --- Offline half: train and snapshot a model (normally cold_train). ---
  const std::string snapshot =
      (std::filesystem::temp_directory_path() / "serving_client_model.arena")
          .string();
  core::ColdEstimates estimates = TrainSmallModel();
  CheckOk(core::SaveArenaSnapshot(estimates, /*top_communities=*/5, snapshot),
          "SaveArenaSnapshot");
  std::printf("snapshot: %s (U=%d C=%d K=%d)\n\n", snapshot.c_str(),
              estimates.U, estimates.C, estimates.K);

  // --- Online half: map the arena and serve it over loopback. -----------
  serve::ModelServiceOptions service_options;
  service_options.model_path = snapshot;
  serve::ModelService service(service_options);
  CheckOk(service.LoadFromFile(snapshot), "LoadFromFile");

  serve::HttpServerOptions server_options;
  server_options.port = 0;  // Ephemeral; real deployments pass --port.
  serve::HttpServer server(server_options, [&service](
                                               const serve::HttpRequest& r) {
    return service.Handle(r);
  });
  CheckOk(server.Start(), "server Start");
  std::printf("serving on 127.0.0.1:%d\n\n", server.port());

  // --- A downstream consumer. -------------------------------------------
  serve::HttpClient client;
  CheckOk(client.Connect(server.port()), "client Connect");

  Show("GET /healthz", client.Get("/healthz"));
  Show("POST /v1/diffusion",
       client.Post("/v1/diffusion",
                   R"({"publisher": 0, "candidate": 7, "words": [1, 2, 3]})"));
  Show("POST /v1/diffusion (fan)",
       client.Post("/v1/diffusion", R"({"publisher": 0, "candidates":)"
                                    R"( [5, 6, 7], "words": [1, 2, 3]})"));
  Show("POST /v1/topic_posterior",
       client.Post("/v1/topic_posterior",
                   R"({"author": 0, "words": [1, 2, 3]})"));
  Show("POST /v1/link",
       client.Post("/v1/link", R"({"source": 0, "target": 7})"));
  Show("POST /v1/timestamp",
       client.Post("/v1/timestamp",
                   R"({"author": 0, "words": [1, 2, 3]})"));
  Show("GET /v1/influential_...",
       client.Get("/v1/influential_communities?topic=0&n=3&trials=16"));

  // --- Hot reload: swap the snapshot without dropping the server. -------
  Show("POST /admin/reload", client.Post("/admin/reload", ""));
  Show("GET /healthz", client.Get("/healthz"));

  // Validation errors come back as structured 4xx, never a dropped
  // connection:
  Show("bad author (422)",
       client.Post("/v1/topic_posterior",
                   R"({"author": 999999, "words": [1]})"));

  client.Close();
  server.Stop();
  std::filesystem::remove(snapshot);
  std::printf("\ndone\n");
  return 0;
}
