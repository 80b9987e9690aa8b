// Package services provides the base platform services the paper runs in
// the underlying framework and shares into virtual instances (§2, §4: "we
// already tested it by running multiple virtual instances that use services
// from the underlying environment namely the log service, the HTTP service
// and the JMX server service"): a log service, an HTTP service whose
// request handling consumes accounted CPU from the owning instance's
// resource domain, and a JMX-like metrics service.
package services

import (
	"fmt"
	"sync"
	"time"

	"dosgi/internal/clock"
	"dosgi/internal/module"
)

// Service class names under which the base services register.
const (
	LogServiceClass     = "org.osgi.service.log.LogService"
	MetricsServiceClass = "javax.management.MBeanServer"
)

// LogLevel grades log entries.
type LogLevel int

// Log levels, mirroring the OSGi Log Service.
const (
	LogError LogLevel = iota + 1
	LogWarning
	LogInfo
	LogDebug
)

func (l LogLevel) String() string {
	switch l {
	case LogError:
		return "ERROR"
	case LogWarning:
		return "WARNING"
	case LogInfo:
		return "INFO"
	case LogDebug:
		return "DEBUG"
	}
	return "UNKNOWN"
}

// LogEntry is one recorded message.
type LogEntry struct {
	Time    time.Duration
	Level   LogLevel
	Source  string
	Message string
}

// String implements fmt.Stringer.
func (e LogEntry) String() string {
	return fmt.Sprintf("[%v] %s %s: %s", e.Time, e.Level, e.Source, e.Message)
}

// LogService is the shared log of the underlying framework — the paper's
// canonical example of a service "well suited" for pulling down and sharing
// across virtual instances.
type LogService struct {
	sched clock.Scheduler

	mu        sync.Mutex
	entries   []LogEntry
	capacity  int
	listeners []func(LogEntry)
}

// NewLogService builds a log keeping at most capacity entries (default
// 1024).
func NewLogService(sched clock.Scheduler, capacity int) *LogService {
	if capacity <= 0 {
		capacity = 1024
	}
	return &LogService{sched: sched, capacity: capacity}
}

// Log records an entry.
func (s *LogService) Log(level LogLevel, source, format string, args ...any) {
	entry := LogEntry{
		Time:    s.sched.Now(),
		Level:   level,
		Source:  source,
		Message: fmt.Sprintf(format, args...),
	}
	s.mu.Lock()
	s.entries = append(s.entries, entry)
	if len(s.entries) > s.capacity {
		s.entries = s.entries[len(s.entries)-s.capacity:]
	}
	listeners := append(make([]func(LogEntry), 0, len(s.listeners)), s.listeners...)
	s.mu.Unlock()
	for _, fn := range listeners {
		fn(entry)
	}
}

// Entries returns a copy of the retained log.
func (s *LogService) Entries() []LogEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]LogEntry, len(s.entries))
	copy(out, s.entries)
	return out
}

// AddListener subscribes to new entries.
func (s *LogService) AddListener(fn func(LogEntry)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.listeners = append(s.listeners, fn)
}

// Count returns the number of retained entries.
func (s *LogService) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// LogBundleDefinition packages the log service as an installable bundle
// for the underlying framework.
func LogBundleDefinition(sched clock.Scheduler) *module.Definition {
	return &module.Definition{
		ManifestText: `Bundle-SymbolicName: org.osgi.service.log
Bundle-Version: 1.3.0
Bundle-Activator: org.osgi.service.log.Activator
Export-Package: org.osgi.service.log;version="1.3"
`,
		Classes: map[string]any{
			"org.osgi.service.log.LogService": "interface:LogService",
		},
		NewActivator: func() module.Activator {
			var reg *module.ServiceRegistration
			return &module.ActivatorFuncs{
				OnStart: func(ctx *module.Context) error {
					svc := NewLogService(sched, 0)
					var err error
					reg, err = ctx.RegisterSingle(LogServiceClass, svc, module.Properties{"shared": true})
					return err
				},
				OnStop: func(ctx *module.Context) error {
					if reg != nil {
						_ = reg.Unregister()
					}
					return nil
				},
			}
		},
	}
}
