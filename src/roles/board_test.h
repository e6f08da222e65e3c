/**
 * @file
 * Board-Test role (Table 2): the infrastructure service validating
 * custom FPGA boards before deployment. Exercises every RBB — network
 * loopback, memory write/read verification, DMA round trips and the
 * unified control kernel — and reports measured rates.
 */

#ifndef HARMONIA_ROLES_BOARD_TEST_H_
#define HARMONIA_ROLES_BOARD_TEST_H_

#include <string>

#include "roles/role.h"

namespace harmonia {

/** Outcome of a full board validation. */
struct BoardReport {
    bool networkPass = true;   ///< pass (or skipped when absent)
    bool memoryPass = true;
    bool hostPass = true;
    bool kernelPass = true;
    bool healthPass = true;
    double networkGbps = 0;    ///< measured loopback throughput
    double memoryGBps = 0;     ///< measured sequential bandwidth
    double dmaGBps = 0;        ///< measured DMA throughput
    std::vector<std::string> log;

    bool allPass() const
    {
        return networkPass && memoryPass && hostPass && kernelPass &&
               healthPass;
    }
};

/** The board-validation role. */
class BoardTest : public Role {
  public:
    BoardTest();

    static RoleRequirements standardRequirements();

    /** Run the full suite against the bound shell. */
    BoardReport runAll(Engine &engine);

    void tick() override {}

  private:
    bool testNetwork(Engine &engine, BoardReport &report);
    bool testHealth(Engine &engine, BoardReport &report);
    bool testMemory(Engine &engine, BoardReport &report);
    bool testHost(Engine &engine, BoardReport &report);
    bool testKernel(Engine &engine, BoardReport &report);
    CounterHandle runs_{stats(), "runs"};
    CounterHandle passes_{stats(), "passes"};
};

} // namespace harmonia

#endif // HARMONIA_ROLES_BOARD_TEST_H_
